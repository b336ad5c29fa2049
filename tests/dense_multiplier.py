"""Dense multiplier matrices: the reference the block-Toeplitz checks are compared against.

`charfn.partial_isometry_check` takes `M M*` and `pi* M` from the coefficient
blocks of a characteristic function without forming its multiplier; the tests
build the multiplier here, entry by entry, and compare.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from wberg.bergman import TruncatedSpace
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
