"""Dense references: the multiplier matrices the block-Toeplitz checks are
compared against, triples that hold a given dense completion, and row chains
``A T*^k`` formed by dense products.

`charfn.partial_isometry_check` takes `M M*` and `pi* M` from the coefficient
blocks of a characteristic function without forming its multiplier; the tests
build the multiplier here, entry by entry, and compare.  A `charfn.CharTriple`
holds its completion as factors; `dense_triple` makes one whose factors
reproduce any given completion, rotated or perturbed.

A dilation reports no compression residual; `dense_compression` forms it
from the dense model operator, and `compression_bound` is the bound the
isometry and intertwining residuals put on it.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from wberg.bergman import TruncatedSpace
from wberg.charfn import CharTriple
from wberg.errors import WbergError


class DegreeOverflow(WbergError):
    """Multiplier product degree exceeds the target cutoff."""


def multiplier_matrix(
    theta: Mapping[tuple[int, ...], np.ndarray] | Sequence[np.ndarray],
    source: TruncatedSpace,
    target: TruncatedSpace,
    strict: bool = False,
) -> np.ndarray:
    """Matrix of multiplication by an operator-valued polynomial.

    ``theta`` maps multi-degrees to ``target.coeff_dim x source.coeff_dim``
    blocks (a plain sequence is taken as one-variable coefficients).  The
    block at ``(a + k, a)`` is the ``k``-th coefficient rescaled between the
    weighted bases; products beyond the target cutoff are dropped, or raise
    :class:`DegreeOverflow` when ``strict``.
    """
    if source.n_vars != target.n_vars:
        raise ValueError("source and target must have the same number of variables")
    if not isinstance(theta, Mapping):
        theta = {(k,): np.asarray(c) for k, c in enumerate(theta)}
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    es, et = source.coeff_dim, target.coeff_dim
    dropped = False
    for k, block in theta.items():
        blk = np.asarray(block, dtype=complex)
        if blk.shape == () and es == et == 1:
            blk = blk.reshape(1, 1)
        if blk.shape != (et, es):
            raise ValueError(f"coefficient block at {k} has shape {blk.shape}, wanted {(et, es)}")
        if not np.any(blk):
            continue
        for a in source.indices:
            b = tuple(ai + ki for ai, ki in zip(a, k))
            if any(bi >= d for bi, d in zip(b, target.degrees)):
                dropped = True
                continue
            scale = math.sqrt(target.monomial_weight(b) / source.monomial_weight(a))
            r0 = target.index_position[b] * et
            c0 = source.index_position[a] * es
            mat[r0:r0 + et, c0:c0 + es] += scale * blk
    if dropped and strict:
        raise DegreeOverflow("polynomial multiplication exceeds the target cutoff")
    return mat


def dense_triple(y: np.ndarray) -> CharTriple:
    """A triple whose completion is the ``N x e`` matrix ``y``: ``V = I_N``
    and ``S = [0 | E - y]``, so that ``E - V S W* = y`` (up to the rounding
    of ``1 - (1 - y_ii)`` on the diagonal of the trailing block)."""
    rows, e = y.shape
    s = np.zeros((rows, rows), dtype=complex)
    s[:, rows - e:] = -y
    s[rows - e:, rows - e:] += np.eye(e)
    return CharTriple(e, np.eye(rows, dtype=complex), s)


def dense_row_chain(a: np.ndarray, t: np.ndarray, count: int) -> np.ndarray:
    """``[A, A T*, ..., A T*^(count-1)]`` by dense products, the reference the
    row chains of `wberg.hyper.OperatorTuple.row_chain` are compared against."""
    out = [np.asarray(a, dtype=complex)]
    for _ in range(1, count):
        out.append(out[-1] @ np.asarray(t).conj().T)
    return np.array(out)


def dense_compression(pi: np.ndarray, m: np.ndarray, t: np.ndarray) -> float:
    """``||Pi* M Pi - T||`` from the dense map ``Pi`` and model operator ``M``."""
    return float(np.linalg.norm(pi.conj().T @ m @ pi - t, 2))


def compression_bound(pi: np.ndarray, t: np.ndarray, isometry: float, intertwining: float) -> float:
    """``||T|| isometry + sqrt(1 + isometry) intertwining``, plus rounding.

    With ``R = Pi T* - M* Pi``, ``Pi* M Pi - T = T (Pi* Pi - I) - R* Pi`` and
    ``||Pi||^2 <= 1 + isometry`` give the bound on the compression.  The
    compression and both residuals are formed with products of inner
    dimension at most ``N + d`` (``Pi`` is ``N x d``) from operands whose
    norms are at most ``||Pi||_F`` and 1 (``||M|| <= 1``), so rounding moves
    each by at most ``gamma_(N + d + 2) ||Pi||_F^2``; the bound allows four
    times ``(N + d + 2) eps ||Pi||_F^2`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.5).
    """
    slack = 4 * (sum(pi.shape) + 2) * np.finfo(float).eps * float(np.linalg.norm(pi)) ** 2
    norm_t = float(np.linalg.norm(t, 2)) if t.size else 0.0
    return norm_t * isometry + math.sqrt(1.0 + isometry) * intertwining + slack
