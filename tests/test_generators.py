"""The generator stream, drawn in blocks by jump-ahead, against the
sequential one-state-per-call LCG it must reproduce bit for bit."""

import hashlib
import math

import numpy as np
import pytest

from wberg import generators
from wberg.generators import Lcg

SEEDS = [0, 1, 17, 2**63, 2**64 - 1, -5]


class SequentialLcg:
    """The reference stream: one state, one uniform, one normal per call."""

    def __init__(self, seed):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & (2**64 - 1)
        self.uniform()

    def uniform(self):
        self.state = (6364136223846793005 * self.state + 1442695040888963407) % 2**64
        return (self.state >> 11) * (1.0 / (1 << 53))

    def uniforms(self, count):
        return np.array([self.uniform() for _ in range(count)])

    def normal(self):
        u1, u2 = max(self.uniform(), 1e-300), self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def complex_matrix(self, rows, cols):
        values = [complex(self.normal(), self.normal()) / math.sqrt(2.0)
                  for _ in range(rows * cols)]
        return np.array(values, dtype=complex).reshape(rows, cols)


@pytest.mark.parametrize("seed", SEEDS)
def test_complex_matrix_has_the_sequential_bits(seed):
    # every square draw from 1x1 to 33x33 in turn, then some flat and empty
    # ones, from one stream each: the values and the state after every draw
    block, sequential = Lcg(seed), SequentialLcg(seed)
    assert block.state == sequential.state
    shapes = [(n, n) for n in range(1, 34)] + [(1, 33), (33, 1), (2, 5), (0, 4), (3, 0)]
    for shape in shapes:
        got, want = block.complex_matrix(*shape), sequential.complex_matrix(*shape)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes(), shape
        assert block.state == sequential.state, shape


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_have_the_sequential_bits(seed):
    block, sequential = Lcg(seed), SequentialLcg(seed)
    for count in (0, 1, 2, 7, 1000):
        assert block.uniforms(count).tobytes() == sequential.uniforms(count).tobytes()
        assert block.state == sequential.state


CALLS = {
    "nilpotent_commuting_tuple": [(s, 6, 3) for s in (0, 1, 17)] + [(5, 2, 2)],
    "random_commuting_contractions": [(s, 5, 3) for s in (0, 1, 17)],
    "random_unitary": [(s, 7) for s in (0, 1, 17)],
    "commuting_unitaries": [(s, 4, 3) for s in (0, 1, 17)],
    "unitary_times_nilpotent": [(s, 2, 3) for s in (0, 1, 17)],
}

# sha256 of the generated matrices, in call order, as the sequential stream
# drawn one normal per call made them
DIGESTS = {
    "nilpotent_commuting_tuple":
        "c1f6449ad3c0c763cc7f13972b25bf585a5044b05a1609a727216727c888b541",
    "random_commuting_contractions":
        "12849cc31311c653548a6e49858ce689fef2f676bf2c665409d4e8646a845038",
    "random_unitary": "7134d7a43bfcbe0f9794f47c1b4f413d6c71c5eaab9f4068ef98d9f67624eb3a",
    "commuting_unitaries": "28c129523b10532e474bd0407835d5591fa29cf319df117735829474027dec22",
    "unitary_times_nilpotent":
        "0c2634c786439599b064a26b207a66a2559acf0380be007d2eb6aa4f31469c15",
}


def generated(name):
    """The matrices of every call of ``CALLS[name]``, in order."""
    out = []
    for args in CALLS[name]:
        result = getattr(generators, name)(*args)
        out += [result.mat] if name == "random_unitary" else [op.mat for op in result]
    return out


@pytest.mark.parametrize("name", sorted(CALLS))
def test_generated_tuples_interleave_the_sequential_stream(monkeypatch, name):
    # each family draws matrices and coefficients from one stream in turn;
    # on the sequential reference stream it builds the same bits
    block = generated(name)
    monkeypatch.setattr(generators, "Lcg", SequentialLcg)
    sequential = generated(name)
    assert [m.tobytes() for m in block] == [m.tobytes() for m in sequential]
    digest = hashlib.sha256(b"".join(m.tobytes() for m in block)).hexdigest()
    assert digest == DIGESTS[name]
