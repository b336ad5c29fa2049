"""Deterministic operator-tuple generators.

Randomness comes from an explicit 64-bit linear congruential generator with
published constants (Knuth's MMIX multiplier), so seeds reproduce the same
tuples on any platform or implementation of the same recipe:

    state <- 6364136223846793005 * state + 1442695040888963407   (mod 2^64)

Uniform doubles take the top 53 bits; normals use the Box-Muller transform on
consecutive uniforms, with the C library's ``log`` and ``cos``.  A draw takes
its states in one block by jump-ahead: after ``k`` steps the state is ``MULT^k
s + INC sum_(i<k) MULT^i`` (mod 2^64), from wrapping ``uint64`` running
products and sums.  Commuting tuples are built as polynomials in a single
random matrix, which commute exactly by construction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .hyper import OperatorTuple
from .linalg import Operator

__all__ = [
    "Lcg",
    "nilpotent_commuting_tuple",
    "scalar_tuple",
    "random_commuting_contractions",
    "random_unitary",
    "commuting_unitaries",
    "unitary_times_nilpotent",
]

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
# Floor of the Box-Muller uniform, so that its logarithm is finite.
_UNIFORM_FLOOR = 1e-300


class Lcg:
    """Minimal deterministic random stream (MMIX linear congruential generator)."""

    def __init__(self, seed: int) -> None:
        # one step decouples the first output from small seeds
        self.state = (_MULT * ((int(seed) ^ 0x9E3779B97F4A7C15) & _MASK) + _INC) & _MASK

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms in [0, 1), each the top 53 bits of a state."""
        powers = np.full(count, _MULT, dtype=np.uint64)
        powers[:1] = 1
        np.cumprod(powers, out=powers)  # MULT^i, i < count
        # s_(i+1) = MULT^i (MULT s) + INC sum_(l <= i) MULT^l
        states = powers * np.uint64(_MULT * self.state & _MASK)
        states += np.cumsum(powers) * np.uint64(_INC)
        self.state = int(states[-1]) if count else self.state
        return (states >> np.uint64(11)) * (1.0 / (1 << 53))

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Complex normals ``(a + ib) / sqrt(2)``, row by row, ``a`` and ``b``
        each a Box-Muller normal of two consecutive uniforms."""
        u = self.uniforms(4 * rows * cols)
        logs = list(map(math.log, np.maximum(u[0::2], _UNIFORM_FLOOR).tolist()))
        cosines = list(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()))
        normal = (np.sqrt(-2.0 * np.array(logs)) * np.array(cosines)).tolist()
        root2 = math.sqrt(2.0)
        values = [complex(a, b) / root2 for a, b in zip(normal[0::2], normal[1::2])]
        return np.array(values, dtype=complex).reshape(rows, cols)


def _scaled(mat: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(mat, 2))
    if norm == 0.0:
        return mat
    return mat * (radius / norm)


def nilpotent_commuting_tuple(
    seed: int, dim: int, n: int, radius: float = 0.9
) -> OperatorTuple:
    """Jointly nilpotent commuting contractions (exact finite hereditary sums).

    Each entry is a constant-free polynomial in one strictly upper-triangular
    random matrix, rescaled to the requested operator norm.
    """
    if dim < 2:
        raise ValueError("nilpotent tuples need dimension at least 2")
    rng = Lcg(seed)
    base = np.triu(rng.complex_matrix(dim, dim), k=1)
    ops = []
    for coeffs in rng.complex_matrix(n, min(3, dim - 1)):
        powers = np.zeros((dim, dim), dtype=complex)
        term = base
        for c in coeffs:
            powers += c * term
            term = term @ base
        ops.append(Operator(_scaled(powers, radius)))
    return OperatorTuple(tuple(ops))


def scalar_tuple(values: Sequence[complex]) -> OperatorTuple:
    """Commuting tuple of 1x1 operators."""
    return OperatorTuple(tuple(Operator([[v]]) for v in values))


def random_commuting_contractions(
    seed: int, dim: int, n: int, radius: float = 0.9
) -> OperatorTuple:
    """Commuting strict contractions: polynomials in one random matrix.

    ``radius`` is the operator norm of every entry; it must stay at most 1
    for the tuple to be contractive.
    """
    if not (0.0 < radius <= 1.0):
        raise ValueError("radius must lie in (0, 1]")
    rng = Lcg(seed)
    base = rng.complex_matrix(dim, dim)
    base = _scaled(base, 1.0)
    ops = []
    for coeffs in rng.complex_matrix(n, 3):
        mat = coeffs[0] * np.eye(dim) + coeffs[1] * base + coeffs[2] * (base @ base)
        ops.append(Operator(_scaled(mat, radius)))
    return OperatorTuple(tuple(ops))


def random_unitary(seed: int, dim: int) -> Operator:
    """Haar-style random unitary with a deterministic phase convention."""
    rng = Lcg(seed)
    q, r = np.linalg.qr(rng.complex_matrix(dim, dim))
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return Operator(q * phases)


def commuting_unitaries(seed: int, dim: int, n: int) -> OperatorTuple:
    """Commuting unitaries: random phase diagonals in a common eigenbasis."""
    rng = Lcg(seed + 1000)
    v = random_unitary(seed, dim).mat
    ops = []
    for _ in range(n):
        phases = np.exp(2j * np.pi * rng.uniforms(dim))
        ops.append(Operator(v @ np.diag(phases) @ v.conj().T))
    return OperatorTuple(tuple(ops))


def unitary_times_nilpotent(seed: int, udim: int, ndim: int) -> OperatorTuple:
    """Mixed pair ``(U (x) I, I (x) N)``: one unitary and one nilpotent coordinate."""
    u = random_unitary(seed, udim)
    nil = nilpotent_commuting_tuple(seed + 1, ndim, 1)[0]
    t1 = np.kron(u.mat, np.eye(ndim))
    t2 = np.kron(np.eye(udim), nil.mat)
    return OperatorTuple.of(t1, t2)
