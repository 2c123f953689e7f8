"""Generator contract: outputs must match the published PCG32 algorithm.

Expected words were produced by an independent C implementation of the
XSH-RR variant (multiplier 6364136223846793005, standard seeding).  A block
of k draws must be the same words as k sequential draws.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from brepforge.rng import SeededRng

REFERENCE = {
    (42, 54): [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E],
    (0, 0): [0xE4C14788, 0x379C6516, 0x5C4AB3BB, 0x601D23E0, 0x1C382B8C, 0xD1FAAB16],
    (7, 7): [0xF1317856, 0x0A08CBA5, 0x1D3217DB, 0xFBF404C5, 0x5504A624, 0x1E605676],
    (123456789, 987654321): [0x70AA3B49, 0x2FE445CB, 0xC5EA87B6, 0x06DD9503, 0xF424BE99, 0x772B761B],
}


def test_matches_c_reference():
    for (seed, stream), expected in REFERENCE.items():
        rng = SeededRng(seed, stream)
        assert [rng.next_u32() for _ in range(len(expected))] == expected


def test_same_pair_same_sequence():
    a = SeededRng(11, 3)
    b = SeededRng(11, 3)
    assert [a.next_u32() for _ in range(100)] == [b.next_u32() for _ in range(100)]


def test_streams_differ():
    a = SeededRng(11, 3)
    b = SeededRng(11, 4)
    assert [a.next_u32() for _ in range(8)] != [b.next_u32() for _ in range(8)]


def test_uniform_int_bounds_and_value():
    rng = SeededRng(1, 1)
    draws = [rng.uniform_int(24, 60) for _ in range(1000)]
    assert all(24 <= d <= 60 for d in draws)
    assert min(draws) == 24 and max(draws) == 60
    # The bounded draw is pinned to lo + word % span.
    check = SeededRng(1, 1)
    words = [check.next_u32() for _ in range(3)]
    verify = SeededRng(1, 1)
    assert [verify.uniform_int(24, 60) for _ in range(3)] == [24 + w % 37 for w in words]


def test_unit_float_halfopen():
    rng = SeededRng(2, 2)
    draws = [rng.unit_float() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)


WORD = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 16, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(WORD, WORD, st.one_of(st.sampled_from([0, 1, 2]), st.integers(1, 400).map(lambda n: 3 * n)))
def test_block_draws_equal_sequential_draws(seed, stream, k):
    block, sequential = SeededRng(seed, stream), SeededRng(seed, stream)
    draws = block.unit_floats(k)
    assert draws.dtype == np.float64 and draws.shape == (k,)
    assert draws.tolist() == [sequential.unit_float() for _ in range(k)]
    assert block.next_u32() == sequential.next_u32()
