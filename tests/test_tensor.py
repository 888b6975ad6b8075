"""Tensor substrate: creation, deterministic filling, matmul, comparison."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from flashwin import (
    CapacityError,
    DenseTensor,
    InvalidRangeError,
    Rng,
    ScratchpadArena,
    ShapeError,
    WindowConfig,
    fill_uniform,
    matmul,
    max_abs_diff,
    window_partition,
    window_reverse,
    zeros,
)
from flashwin.tensor import _FILL_BLOCK


class TestZeros:
    def test_2x2_is_all_zero(self):
        t = zeros([2, 2])
        assert t.shape == (2, 2)
        assert np.array_equal(t.array, [[0.0, 0.0], [0.0, 0.0]])

    def test_single_element(self):
        assert zeros([1]).array.tolist() == [0.0]

    def test_sum_of_large_zero_tensor(self):
        assert zeros([64, 64]).array.sum() == 0.0

    @pytest.mark.parametrize("shape", [[0], [2, 0], [-1, 3], [], [1, 1, 1, 1, 1]])
    def test_invalid_shapes_rejected(self, shape):
        with pytest.raises(ShapeError):
            zeros(shape)

    @pytest.mark.parametrize("shape", [[10**10, 10**10], [2**31, 2**31]], ids=["extent", "bytes"])
    def test_a_shape_numpy_cannot_index_is_host_memory_exhaustion(self, shape):
        # numpy raises ValueError for these, not MemoryError; both mean "too large".
        msg = re.escape(f"shape {tuple(shape)} is too large for the host")
        with pytest.raises(MemoryError, match=msg):
            zeros(shape)
        rng = Rng(1)
        with pytest.raises(MemoryError, match=msg):
            fill_uniform(rng, shape, -1.0, 1.0)
        assert rng.next_u64() == Rng(1).next_u64()  # no draw was consumed

    def test_buffer_length_must_match_shape(self):
        with pytest.raises(ShapeError):
            DenseTensor((2, 3), np.zeros(5))

    def test_tensors_are_immutable(self):
        t = zeros([2, 2])
        with pytest.raises(ValueError):
            t.array[0, 0] = 1.0
        with pytest.raises(ValueError):
            t.data[0] = 1.0
        flat = t.data
        assert flat.ndim == 1 and not flat.flags.writeable
        assert np.shares_memory(flat, t.array)
        t.array.shape = (4,)
        t.data.shape = (2, 2)
        assert t.shape == (2, 2) and t.array.shape == (2, 2) and t.data.shape == (4,)


_WIN = WindowConfig(H=4, W=4, C=2, k=2)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: x,  # fill_uniform's own output
        lambda x: window_partition(x, _WIN),
        lambda x: window_reverse(window_partition(x, _WIN), _WIN),
        lambda x: DenseTensor(x.shape, x.array),
        lambda x: zeros(x.shape),
        lambda x: DenseTensor._adopt(x.array[1:3]),
    ],
    ids=["fill_uniform", "window_partition", "window_reverse", "constructor", "zeros", "view"],
)
def test_no_view_of_a_tensor_can_be_made_writeable(make):
    t = make(fill_uniform(Rng(1), (4, 4, 2), 0.0, 1.0))
    before = t.array.copy()
    for view in (t.array, t.data):
        with pytest.raises(ValueError):
            view.setflags(write=True)
    assert np.array_equal(t.array, before)


class TestExtents:
    """One count rule: every extent is an integer >= 1; others are refused, never truncated."""

    @pytest.mark.parametrize(
        "shape", [(2.5, 3), (2.9,), (2.0, 3), (True, 3), (2, False), ("3",), (np.float64(2), 3)],
        ids=repr,
    )
    @pytest.mark.parametrize("make", ["fill_uniform", "zeros", "DenseTensor"])
    def test_a_non_integer_extent_is_refused(self, make, shape):
        rng = Rng(3)
        build = {
            "fill_uniform": lambda: fill_uniform(rng, shape, -1.0, 1.0),
            "zeros": lambda: zeros(shape),
            "DenseTensor": lambda: DenseTensor(shape, np.zeros(6)),
        }[make]
        message = f"extents must be integers, got {tuple(shape)}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            build()
        assert rng.next_u64() == Rng(3).next_u64()  # no draw was taken

    def test_numpy_integer_extents_act_as_python_ints(self):
        shape = (np.int64(3), np.int32(5))
        a, b = Rng(9), Rng(9)
        got, want = fill_uniform(a, shape, -1.0, 1.0), fill_uniform(b, (3, 5), -1.0, 1.0)
        assert got.array.tobytes() == want.array.tobytes()
        assert a.next_u64() == b.next_u64()
        assert zeros(shape).shape == DenseTensor(shape, np.zeros(15)).shape == (3, 5)


# The one extent rule, tensor._validated, by each shape it refuses: its exact message, with
# "{bound}" the least extent allowed, 1 for a tensor and 0 for a scratchpad buffer.
REFUSED_SHAPES = [
    (None, "a shape is a sequence of extents, got None"),
    (5, "a shape is a sequence of extents, got 5"),
    (2.5, "a shape is a sequence of extents, got 2.5"),
    ((2.0,), "extents must be integers, got (2.0,)"),
    ((True, 2), "extents must be integers, got (True, 2)"),
    (("2",), "extents must be integers, got ('2',)"),
    ((None,), "extents must be integers, got (None,)"),
    ((), "shape must have 1..4 axes, got ()"),
    ((1, 1, 1, 1, 1), "shape must have 1..4 axes, got (1, 1, 1, 1, 1)"),
    ((-2,), "all extents must be >= {bound}, got (-2,)"),
]


@pytest.mark.parametrize(
    "shape, message", REFUSED_SHAPES, ids=[repr(shape) for shape, _ in REFUSED_SHAPES]
)
@pytest.mark.parametrize("make", ["zeros", "fill_uniform", "DenseTensor", "allocate"])
def test_every_taker_of_a_shape_refuses_by_the_one_extent_rule_and_changes_nothing(
    make, shape, message
):
    rng, arena = Rng(3), ScratchpadArena(capacity_bytes=64)
    arena.allocate("base", (2,), 8)
    build = {
        "zeros": lambda: zeros(shape),
        "fill_uniform": lambda: fill_uniform(rng, shape, -1.0, 1.0),
        "DenseTensor": lambda: DenseTensor(shape, np.zeros(2)),
        "allocate": lambda: arena.allocate("x", shape, 4),
    }[make]
    message = message.format(bound=0 if make == "allocate" else 1)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        build()
    assert arena.live_bytes == 16 and len(arena._held) == 1
    assert rng.next_u64() == Rng(3).next_u64()  # no draw was taken


def test_a_zero_extent_makes_an_empty_buffer_but_no_tensor():
    arena = ScratchpadArena(capacity_bytes=64)
    assert arena.allocate("x", (0, 3), 4).shape == (0, 3) and arena.live_bytes == 0
    with pytest.raises(ShapeError, match=r"^all extents must be >= 1, got \(0, 3\)$"):
        zeros((0, 3))


@pytest.mark.parametrize(
    "shape", [(10**15,), (2**31, 2**31), (np.int64(2 * 10**18),)], ids=repr
)
def test_a_well_formed_buffer_too_large_for_the_host_is_a_capacity_error(shape):
    # Its bytes are counted in Python ints, where numpy's product would wrap.
    arena = ScratchpadArena(capacity_bytes=64)
    nbytes = math.prod(int(e) for e in shape) * 4
    message = f"scratchpad overflow allocating 'x': {nbytes} bytes requested, 64 of 64 available"
    with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
        arena.allocate("x", shape, 4)
    assert arena.live_bytes == 0 and not arena._held


class TestFillUniform:
    def test_same_seed_is_bitwise_identical(self):
        a = fill_uniform(Rng(123), [5, 7], -1.0, 1.0)
        b = fill_uniform(Rng(123), [5, 7], -1.0, 1.0)
        assert np.array_equal(a.array, b.array)

    def test_values_lie_in_half_open_interval(self):
        t = fill_uniform(Rng(9), [8, 8], -1.0, 1.0)
        assert t.array.min() >= -1.0
        assert t.array.max() < 1.0

    def test_mean_of_a_million_draws(self):
        t = fill_uniform(Rng(2024), [1000, 1000], -1.0, 1.0)
        assert abs(t.array.mean()) < 0.01

    def test_vectorized_fill_matches_scalar_draws(self):
        rng = Rng(55)
        expected = [rng.next_float() for _ in range(12)]
        got = fill_uniform(Rng(55), [3, 4], 0.0, 1.0)
        assert got.array.reshape(-1).tolist() == expected

    @pytest.mark.parametrize(
        "n", [_FILL_BLOCK - 1, _FILL_BLOCK, _FILL_BLOCK + 1, 2 * _FILL_BLOCK + 3]
    )
    def test_blocked_fill_matches_scalar_draws_across_block_edges(self, n):
        lo, hi = -2.5, 4.0
        rng = Rng(77)
        expected = [lo + (hi - lo) * rng.next_float() for _ in range(n)]
        assert fill_uniform(Rng(77), [n], lo, hi).array.tolist() == expected

    def test_multi_block_fill_leaves_the_stream_after_n_draws(self):
        n = 2 * _FILL_BLOCK + 3
        filled, stepped = Rng(91), Rng(91)
        fill_uniform(filled, [n], 0.0, 1.0)
        for _ in range(n):
            stepped.next_u64()
        assert [filled.next_u64() for _ in range(3)] == [stepped.next_u64() for _ in range(3)]

    def test_filled_tensor_is_read_only(self):
        t = fill_uniform(Rng(3), [2, _FILL_BLOCK + 1], -1.0, 1.0)
        assert not t.array.flags.writeable
        with pytest.raises(ValueError):
            t.array[1, -1] = 0.0

    def test_large_fill_allocates_little_beyond_its_output(self):
        n = 10**6
        tracemalloc.start()
        try:
            fill_uniform(Rng(1), [n], -1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n

    def test_a_non_contiguous_input_is_copied_once(self):
        # The wide_fwd head split: (windows, heads, L, C) as a transposed view.
        heads = np.zeros((16, 64, 4, 256)).transpose(0, 2, 1, 3)
        tracemalloc.start()
        try:
            t = DenseTensor(heads.shape, heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.shape == (16, 4, 64, 256)
        assert peak < 1.5 * heads.nbytes

    def test_fill_advances_the_stream(self):
        rng = Rng(55)
        first = fill_uniform(rng, [4], 0.0, 1.0)
        second = fill_uniform(rng, [4], 0.0, 1.0)
        assert not np.array_equal(first.array, second.array)

    def test_split_streams_are_independent_and_reproducible(self):
        parent_a, parent_b = Rng(1), Rng(1)
        child_a, child_b = parent_a.split(), parent_b.split()
        assert [child_a.next_u64() for _ in range(4)] == [
            child_b.next_u64() for _ in range(4)
        ]
        assert parent_a.next_u64() != child_a.next_u64()

    @pytest.mark.parametrize(
        "lo,hi", [(1.0, 1.0), (2.0, -2.0), (float("nan"), 1.0), (-1e308, 1e308)]
    )
    def test_invalid_range_rejected(self, lo, hi):
        with pytest.raises(InvalidRangeError):
            fill_uniform(Rng(0), [2], lo, hi)


class TestSeeds:
    @pytest.mark.parametrize("seed", [2.5, 2.0, "3", True, None, np.float64(2.0)], ids=repr)
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        message = f"seed must be an integer, got {seed!r}"
        with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
            Rng(seed)

    def test_any_integer_seed_runs_masked_to_64_bits(self):
        draws = lambda rng: [rng.next_u64() for _ in range(2)]
        for seed in (np.int64(5), np.uint8(5), 5 + 2**64):
            assert draws(Rng(seed)) == draws(Rng(5))
        assert Rng(-1).next_u64() == Rng(2**64 - 1).next_u64()


class TestMatmul:
    def test_identity_is_exact_for_integer_entries(self):
        eye = DenseTensor((3, 3), np.eye(3))
        a = DenseTensor((3, 3), np.arange(9.0).reshape(3, 3))
        assert np.array_equal(matmul(a, eye).array, a.array)
        assert np.array_equal(matmul(eye, a).array, a.array)

    def test_zeros_annihilate(self):
        a = fill_uniform(Rng(3), [4, 5], -1.0, 1.0)
        assert np.array_equal(matmul(a, zeros([5, 2])).array, np.zeros((4, 2)))

    def test_hand_expanded_2x2_product(self):
        a = DenseTensor((2, 2), [[1.0, 2.0], [3.0, 4.0]])
        b = DenseTensor((2, 2), [[5.0, 6.0], [7.0, 8.0]])
        assert matmul(a, b).array.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_inner_extent_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(zeros([2, 3]), zeros([4, 2]))

    def test_non_2d_operands_rejected(self):
        with pytest.raises(ShapeError):
            matmul(zeros([2, 2, 2]), zeros([2, 2]))


class TestMaxAbsDiff:
    def test_reflexivity(self):
        a = fill_uniform(Rng(4), [6, 6], -1.0, 1.0)
        assert max_abs_diff(a, a) == 0.0

    def test_single_element_difference(self):
        assert max_abs_diff(zeros([2]), DenseTensor((2,), [0.0, 3.0])) == 3.0

    def test_symmetry_on_random_pairs(self):
        rng = Rng(5)
        for _ in range(20):
            a = fill_uniform(rng, [3, 4], -1.0, 1.0)
            b = fill_uniform(rng, [3, 4], -1.0, 1.0)
            assert max_abs_diff(a, b) == max_abs_diff(b, a)

    def test_triangle_property_on_random_triples(self):
        rng = Rng(6)
        for _ in range(20):
            a, b, c = (fill_uniform(rng, [4, 4], -1.0, 1.0) for _ in range(3))
            assert max_abs_diff(a, c) <= max_abs_diff(a, b) + max_abs_diff(b, c) + 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            max_abs_diff(zeros([2, 2]), zeros([4]))
