"""Truncated power-series calculus for weight sequences.

A weight sequence is a positive decreasing sequence ``w_0 = 1 >= w_1 >= ...``
whose associated function ``k(z) = sum_k z^k / w_k`` is the diagonal of a
reproducing kernel.  This module generates the standard weight families,
forms the associated series in one or several variables and its reciprocal,
and evaluates the quotient coefficients ``a_m(r, s)`` of ``k(r z) / k(s z)``
that drive every positivity test downstream.

For the presets ``1/k = (1 - z)^p`` (Hardy ``p = 1``, ``bergman:beta``
``p = beta``), formed by its forward-stable coefficient recurrence; convolution
division, forward-unstable for non-integer ``beta`` (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 8), is left to explicit lists.  In
several variables ``k`` is a product, so ``1/k`` is the outer product of the
one-variable rows (:func:`reciprocal_series`).

All coefficients here are real.  Truncation is exact: a series of
per-variable degree ``N_i`` carries every coefficient with multi-index below
the cutoff and nothing else, and products discard higher-degree terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    BadBeta,
    InvalidWeights,
    NonDecreasingWeights,
    ZeroConstantTerm,
)

__all__ = [
    "WeightSpec",
    "MultiWeightSpec",
    "TruncatedSeries",
    "weight_values",
    "associated_series",
    "invert_series",
    "reciprocal_series",
    "quotient_coeffs",
    "check_properties",
    "PropertyReport",
]

# Most negative product of quotient coefficients that still counts as the
# positivity property P1.
PROPERTY_TOL = 1e-10


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """One weight sequence, given by a generator rule.

    ``kind`` is one of ``"hardy"`` (the constant sequence 1), ``"bergman"``
    (``w_k = 1 / binom(beta + k - 1, k)`` for ``beta >= 1``) or
    ``"explicit"`` (a finite decreasing list).
    """

    kind: str
    beta: float | None = None
    explicit: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "hardy":
            pass
        elif self.kind == "bergman":
            if self.beta is None or self.beta < 1.0:
                raise BadBeta(f"bergman weight needs beta >= 1, got {self.beta}")
        elif self.kind == "explicit":
            vals = self.explicit
            if not vals:
                raise InvalidWeights("explicit weight list is empty")
            if abs(vals[0] - 1.0) > 0:
                raise InvalidWeights("weight sequences start at 1")
            if any(v <= 0 for v in vals):
                raise InvalidWeights("weights must be positive")
            if any(vals[k + 1] > vals[k] for k in range(len(vals) - 1)):
                raise NonDecreasingWeights("explicit weights must be decreasing")
        else:
            raise InvalidWeights(f"unknown weight kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def hardy() -> "WeightSpec":
        return WeightSpec("hardy")

    @staticmethod
    def bergman(beta: float) -> "WeightSpec":
        return WeightSpec("bergman", beta=float(beta))

    @staticmethod
    def from_values(values: Iterable[float]) -> "WeightSpec":
        return WeightSpec("explicit", explicit=tuple(float(v) for v in values))

    @staticmethod
    def parse(text: str) -> "WeightSpec":
        """Parse the textual form ``hardy`` | ``bergman:<beta>`` | ``explicit:[...]``."""
        text = text.strip()
        if text == "hardy":
            return WeightSpec.hardy()
        if text.startswith("bergman:"):
            try:
                beta = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise InvalidWeights(f"bad bergman parameter in {text!r}") from exc
            return WeightSpec.bergman(beta)
        if text.startswith("explicit:"):
            body = text.split(":", 1)[1].strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise InvalidWeights(f"explicit weights need a bracketed list, got {text!r}")
            items = [s for s in body[1:-1].split(",") if s.strip()]
            return WeightSpec.from_values(float(s) for s in items)
        raise InvalidWeights(f"cannot parse weight spec {text!r}")

    @property
    def text(self) -> str:
        if self.kind == "hardy":
            return "hardy"
        if self.kind == "bergman":
            b = self.beta
            return f"bergman:{int(b)}" if float(b).is_integer() else f"bergman:{b}"
        return "explicit:[" + ",".join(repr(v) for v in self.explicit) + "]"

    @property
    def exponent(self) -> float | None:
        """``p`` with ``1/k = (1 - z)^p`` (Hardy ``p = 1``); None for an explicit list."""
        return {"hardy": 1.0, "bergman": self.beta}.get(self.kind)

    @property
    def max_terms(self) -> int | None:
        """Longest available prefix: the list length for explicit weights, else unbounded."""
        return len(self.explicit) if self.kind == "explicit" else None

    # -- values ---------------------------------------------------------------

    def values(self, n: int) -> np.ndarray:
        """Return ``w_0 .. w_{n-1}`` as a float array."""
        return weight_values(self, n)

    def inverse_weight_values(self, n: int) -> np.ndarray:
        """Return ``1/w_0 .. 1/w_{n-1}``, the associated-series coefficients,
        as the cached read-only array."""
        return _inverse_weights_cached(self, n)

    def inverse_coeffs(self, n: int) -> np.ndarray:
        """Coefficients of the reciprocal ``1/k`` of the associated series, as
        the cached read-only array."""
        return _inverse_coeffs_cached(self, n)


def weight_values(spec: WeightSpec, n: int) -> np.ndarray:
    """Generate ``w_0 .. w_{n-1}`` for a weight spec.

    Bergman weights with integer ``beta`` use exact binomials; non-integer
    ``beta`` goes through log-Gamma differences so large indices do not
    overflow.
    """
    if n < 1:
        raise InvalidWeights("need at least one weight value")
    if spec.kind == "hardy":
        return np.ones(n)
    if spec.kind == "bergman":
        return 1.0 / _binomial_row(spec.beta, n)
    vals = spec.explicit
    if len(vals) < n:
        raise InvalidWeights(f"explicit weight list has {len(vals)} entries, {n} requested")
    return np.asarray(vals[:n], dtype=float)


def _binomial_row(beta: float, n: int) -> np.ndarray:
    """``binom(beta + k - 1, k)`` for ``k = 0 .. n-1``."""
    if float(beta).is_integer():
        b = int(beta)
        return np.array([math.comb(b + k - 1, k) for k in range(n)], dtype=float)
    lg = [math.lgamma(beta + k) - math.lgamma(beta) - math.lgamma(k + 1.0) for k in range(n)]
    return np.exp(np.asarray(lg))


@lru_cache(maxsize=None)
def _inverse_weights_cached(spec: WeightSpec, n: int) -> np.ndarray:
    # computed from the generator directly (not as 1/values) so integer
    # binomial reciprocals are exact
    if spec.kind == "hardy":
        out = np.ones(n)
    elif spec.kind == "bergman":
        out = _binomial_row(spec.beta, n)
    else:
        out = 1.0 / weight_values(spec, n)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _one_minus_z_power(p: float, n: int) -> np.ndarray:
    """Read-only first ``n`` coefficients of ``(1 - z)^p``, built once:
    ``c_0 = 1``, ``c_k = c_{k-1} (k - 1 - p) / k``.

    For integer ``p <= 50`` every intermediate is an integer below ``2^53``,
    so the alternating binomials come out exactly, and the factor
    ``k - 1 - p`` vanishes at ``k = p + 1``, so every later entry is zero.
    """
    out = np.empty(n)
    out[0] = 1.0
    for k in range(1, n):
        out[k] = out[k - 1] * (k - 1 - p) / k
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _inverse_coeffs_cached(spec: WeightSpec, n: int) -> np.ndarray:
    if spec.exponent is not None:
        return _one_minus_z_power(spec.exponent, n)
    out = invert_series(TruncatedSeries(_inverse_weights_cached(spec, n))).coeffs
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MultiWeightSpec:
    """An ordered tuple of weight sequences, one per polydisc variable."""

    weights: tuple[WeightSpec, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise InvalidWeights("need at least one weight sequence")

    @staticmethod
    def of(*specs: WeightSpec) -> "MultiWeightSpec":
        return MultiWeightSpec(tuple(specs))

    @staticmethod
    def parse(text: str) -> "MultiWeightSpec":
        parts = _split_weight_list(text)
        return MultiWeightSpec(tuple(WeightSpec.parse(p) for p in parts))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def text(self) -> str:
        return ",".join(w.text for w in self.weights)

    def __getitem__(self, i: int) -> WeightSpec:
        return self.weights[i]

    def __iter__(self):
        return iter(self.weights)

    def subset(self, lam: Sequence[int]) -> "MultiWeightSpec":
        """Restrict to the (0-based, sorted) index subset ``lam``."""
        return MultiWeightSpec(tuple(self.weights[i] for i in lam))

    def swap_family(self):
        """All 2^n variants with coordinates swapped for the constant weight.

        Yields ``(mask, spec)`` in ascending mask order; bit ``i`` set keeps
        the original i-th weight.  Mask ``2^n - 1`` is the spec itself and
        mask 0 is the all-constant tuple.
        """
        hardy = WeightSpec.hardy()
        for mask in range(1 << self.n):
            members = tuple(
                self.weights[i] if (mask >> i) & 1 else hardy for i in range(self.n)
            )
            yield mask, MultiWeightSpec(members)

    def integer_betas(self) -> tuple[int, ...] | None:
        """Per-variable binomial exponents when every weight is of that integer type."""
        betas = [spec.exponent for spec in self.weights]
        if any(b is None or not float(b).is_integer() for b in betas):
            return None
        return tuple(int(b) for b in betas)


def _split_weight_list(text: str) -> list[str]:
    # commas inside explicit:[...] brackets do not separate entries
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Dense real coefficients of a power series below a per-variable cutoff.

    ``coeffs[alpha]`` is the coefficient of ``z^alpha``; the array shape is the
    per-variable degree vector.  Addition and multiplication close under the
    same cutoff, with higher-degree products discarded.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.ascontiguousarray(coeffs, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.coeffs = arr

    @property
    def n_vars(self) -> int:
        return self.coeffs.ndim

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.coeffs.shape

    @staticmethod
    def one(degrees: Sequence[int]) -> "TruncatedSeries":
        arr = np.zeros(tuple(degrees))
        arr.flat[0] = 1.0
        return TruncatedSeries(arr)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs - other.coeffs)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the common cutoff, by Toeplitz blocks.

        With ``a = self.coeffs``, ``b = other.coeffs`` and ``n`` the last
        degree, the product is ``sum_s z^s a_s(z_n) b(z)`` over the leading
        multi-indices ``s``, ``a_s`` the last-axis row of ``a`` at ``s``.
        Multiplying every last-axis row of ``b`` by ``a_s`` is one product
        with the ``n``-square upper triangular Toeplitz matrix ``T_s[j, k] =
        a_s[k - j]`` (Golub & Van Loan, *Matrix Computations*, 4th ed.,
        §4.7), and the shift ``z^s`` moves the rows ``b[i']`` to ``out[s +
        i']``, dropping those past the cutoff.  So Python loops once per
        leading ``s`` with a nonzero row (a zero row adds nothing), and
        BLAS does the rest: ``out[s + i', :] += b[i', :] @ T_s`` over all
        ``i'`` at once.

        Sum order: each output coefficient accumulates its terms in the
        C order of ``s``, and within one ``s`` in the order of the BLAS
        product over the last axis.  Products of integer-valued series
        (Hardy and integer ``bergman`` presets) stay exact: every term and
        partial sum is an integer below ``2^53``, so the sum is exact in any
        order.

        Memory: one ``n``-square block and one product the size of the
        shifted slice of ``b`` per step, never a block per leading index.
        """
        if self.degrees != other.degrees:
            raise ValueError("series cutoffs differ")
        a, b = self.coeffs, other.coeffs
        n = a.shape[-1]
        out = np.zeros_like(a)
        # T_s = padded[lags] with padded = [0, .., 0, a_s], so a lag k - j
        # below 0 reads the zero padding
        padded = np.zeros(2 * n - 1)
        lags = (n - 1) + np.arange(n)[None, :] - np.arange(n)[:, None]
        for s in np.argwhere(a.any(axis=-1)):
            padded[n - 1:] = a[tuple(s)]
            shifted = tuple(slice(i, None) for i in s)
            kept = tuple(slice(None, d - i) for i, d in zip(s, a.shape))
            out[shifted] += b[kept] @ padded[lags]
        return TruncatedSeries(out)

    __mul__ = mul

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def to_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "degrees": list(self.degrees),
            "coeffs": self.coeffs.ravel(order="C").tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "TruncatedSeries":
        degrees = tuple(int(d) for d in data["degrees"])
        arr = np.asarray(data["coeffs"], dtype=float).reshape(degrees, order="C")
        return TruncatedSeries(arr)

    def __repr__(self) -> str:
        return f"TruncatedSeries(degrees={self.degrees})"


def _outer(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product ``rows[0] (x) rows[1] (x) ...`` as an n-dimensional array."""
    out = rows[0]
    for row in rows[1:]:
        out = np.multiply.outer(out, row)
    return out


def associated_series(spec: MultiWeightSpec, degrees: Sequence[int] | int) -> TruncatedSeries:
    """The product series with coefficients ``1 / (w_{a_1} ... w_{a_n})``."""
    degs = _normalize_degrees(degrees, spec.n)
    return TruncatedSeries(_outer([spec[i].inverse_weight_values(degs[i]) for i in range(spec.n)]))


def reciprocal_series(spec: MultiWeightSpec, degrees: Sequence[int] | int) -> TruncatedSeries:
    """Reciprocal of :func:`associated_series`: the outer product of the
    one-variable rows ``inverse_coeffs``, since the associated series is a
    product over the variables."""
    degs = _normalize_degrees(degrees, spec.n)
    return TruncatedSeries(_outer([spec[i].inverse_coeffs(degs[i]) for i in range(spec.n)]))


def invert_series(s: TruncatedSeries) -> TruncatedSeries:
    """Reciprocal of a one-variable truncated series by convolution division.

    The defining property holds degree by degree: the truncated product of
    the input with the result is the constant series 1.  This is the route
    of explicit weight lists; several variables go through
    :func:`reciprocal_series`.
    """
    a = s.coeffs
    if a.ndim != 1:
        raise ArityMismatch(f"convolution division takes one variable, not {a.ndim}")
    if a[0] == 0.0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    out = np.zeros_like(a)
    out[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        # out[k] is still zero, so the sum runs over strictly smaller indices
        out[k] = -np.sum(a[k::-1] * out[: k + 1]) / a[0]
    return TruncatedSeries(out)


def quotient_coeffs(spec: WeightSpec, r: float, s: float, n: int) -> np.ndarray:
    """Coefficients ``a_0 .. a_{n-1}`` of ``k(r z) / k(s z)`` for one weight sequence.

    ``a_m(r, s) = sum_{k<=m} r^k / w_k * c_{m-k} s^{m-k}`` where ``c`` are the
    reciprocal coefficients; ``a_0`` is always 1.
    """
    if not (0.0 < r <= 1.0 and 0.0 < s <= 1.0):
        raise ValueError("quotient arguments must lie in (0, 1]")
    powers = np.arange(n)
    num = spec.inverse_weight_values(n) * (r ** powers)
    den = spec.inverse_coeffs(n) * (s ** powers)
    return np.convolve(num, den)[:n]


@dataclass(frozen=True)
class PropertyReport:
    """Cutoff-level summary of the quotient-coefficient properties.

    ``p1_ok``: all product coefficients of ``k / k_r`` are nonnegative on the
    grid.  ``p2_bound``: largest quotient coefficient of ``k_r / k`` on the
    grid.  ``p3_abs_sum``: absolute coefficient sum of the reciprocal up to
    the cutoff.  ``liminf_assumed`` flags that the unit-radius growth
    condition is taken on faith for explicit finite lists.
    """

    p1_ok: bool
    p1_min: float
    p2_bound: float
    p3_abs_sum: float
    liminf_assumed: bool
    grid: tuple[tuple[float, ...], ...]
    degrees: tuple[int, ...]
    tol: float


def check_properties(
    spec: MultiWeightSpec,
    r_grid: Sequence[Sequence[float] | float],
    degrees: Sequence[int] | int,
) -> PropertyReport:
    """Check the positivity/boundedness properties of the associated function."""
    degs = _normalize_degrees(degrees, spec.n)
    grid = _normalize_grid(r_grid, spec.n)
    p1_min = math.inf
    p2_bound = 0.0
    for point in grid:
        fwd = [quotient_coeffs(spec[i], 1.0, point[i], degs[i]) for i in range(spec.n)]
        bwd = [quotient_coeffs(spec[i], point[i], 1.0, degs[i]) for i in range(spec.n)]
        p1_min = min(p1_min, float(np.min(_outer(fwd))))
        p2_bound = max(p2_bound, float(np.max(np.abs(_outer(bwd)))))
    abs_sums = [float(np.sum(np.abs(spec[i].inverse_coeffs(degs[i])))) for i in range(spec.n)]
    return PropertyReport(
        p1_ok=bool(p1_min >= -PROPERTY_TOL),
        p1_min=p1_min,
        p2_bound=p2_bound,
        p3_abs_sum=float(np.prod(abs_sums)),
        liminf_assumed=any(w.exponent is None for w in spec),
        grid=grid,
        degrees=degs,
        tol=PROPERTY_TOL,
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _normalize_degrees(degrees: Sequence[int] | int, n: int) -> tuple[int, ...]:
    """Per-variable cutoffs from one cutoff or a sequence of ``n``, each at least 1."""
    if isinstance(degrees, (int, np.integer)):
        degs = (int(degrees),) * n
    else:
        degs = tuple(int(d) for d in degrees)
    if len(degs) != n:
        raise ArityMismatch(f"expected {n} cutoffs, got {len(degs)}")
    if any(d < 1 for d in degs):
        raise ValueError("cutoffs must be positive")
    return degs


def _normalize_point(r, n: int) -> tuple[float, ...]:
    """A radius point in ``(0, 1]^n``; a scalar is repeated across coordinates."""
    if isinstance(r, (int, float, np.floating)):
        point = (float(r),) * n
    else:
        point = tuple(float(v) for v in r)
    if len(point) != n:
        raise ArityMismatch(f"grid point arity {len(point)} != {n}")
    if any(not (0.0 < v <= 1.0) for v in point):
        raise ValueError("evaluation points must lie in (0, 1]")
    return point


def _normalize_grid(r_grid, n: int) -> tuple[tuple[float, ...], ...]:
    return tuple(_normalize_point(entry, n) for entry in r_grid)
