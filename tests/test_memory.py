"""Scratchpad arena bookkeeping, per-call reports and traffic-report merging."""

import math
import re

import numpy as np
import pytest

from flashwin import (
    CapacityError,
    FlashwinError,
    InvalidRangeError,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    TrafficReport,
    merge_reports,
)


def test_allocate_and_free_track_live_bytes():
    arena = ScratchpadArena(capacity_bytes=1024)
    a = arena.allocate("a", (8, 8), 4)
    assert arena.live_bytes == 256
    b = arena.allocate("b", (16,), 8)
    assert arena.live_bytes == 384
    arena.free(a)
    assert arena.live_bytes == 128
    arena.free(b)
    assert arena.live_bytes == 0


def test_peak_is_a_high_water_mark():
    arena = ScratchpadArena(capacity_bytes=1024)
    with arena.kernel_call("forward", 1024) as report:
        a = arena.allocate("a", (10,), 8)
        b = arena.allocate("b", (20,), 8)
        arena.free(b)
        c = arena.allocate("c", (5,), 8)
        arena.free(a)
        arena.free(c)
    assert report().peak_sram_bytes == 240
    assert arena.live_bytes == 0


def _busy_arena():
    # 80 B live, after reaching 240 B.
    arena = ScratchpadArena(capacity_bytes=1024)
    arena.allocate("a", (10,), 8)
    arena.free(arena.allocate("b", (20,), 8))
    return arena


def test_kernel_call_measures_its_peak_above_the_entry_bytes():
    arena = _busy_arena()
    with arena.kernel_call("forward", 100) as report:
        c = arena.allocate("c", (5,), 8)
        arena.free(arena.allocate("d", (2,), 8))
        arena.free(c)
        assert report() is None  # made when the call ends
    first = report()
    assert first.peak_sram_bytes == 56
    assert arena.live_bytes == 80
    with arena.kernel_call("forward", 100) as report:
        arena.free(arena.allocate("e", (1,), 8))
    assert report().peak_sram_bytes == 8  # restarted by the next call
    assert first.peak_sram_bytes == 56


def test_load_and_store_copy_through_buffers_and_count_in_first_touch_order():
    arena = ScratchpadArena(capacity_bytes=1024)
    src = np.arange(12.0).reshape(3, 4)
    dest = np.zeros((3, 4))
    with arena.kernel_call("forward", 1024) as report:
        k = arena.load("K", src[:, 2:], 4)
        assert arena.live_bytes == 24  # 6 elements at 4 B
        assert type(k) is np.ndarray and k.dtype == np.float64
        assert np.array_equal(k, src[:, 2:]) and not np.shares_memory(k, src)
        q = arena.load("Q", src[:, :2], 8)
        assert arena.live_bytes == 24 + 48
        arena.free(arena.load("K", src[:, :1], 4))
        arena.store("O", dest[:, :2], q)
        arena.store("dK", dest[:, 2:], k)
        arena.store("O", np.empty((2, 3, 2)), k)  # a broadcast counts what it writes
        arena.free(q)
        arena.free(k)
    assert np.array_equal(dest, src[:, [0, 1, 2, 3]])
    rep = report()
    assert list(rep.loads.items()) == [("K", 9), ("Q", 6)]
    assert list(rep.stores.items()) == [("O", 6 + 12), ("dK", 6)]
    assert rep.peak_sram_bytes == 24 + 48 + 12
    assert arena.live_bytes == 0


def test_a_report_is_frozen_when_its_call_ends():
    arena = _busy_arena()
    with arena.kernel_call("forward", 200) as report:
        q = arena.load("Q", np.ones((2, 3)), 8)
        arena.store("O", np.empty((2, 3)), q)
        arena.free(q)
    frozen = report()
    want = TrafficReport({"Q": 6}, {"O": 6}, 48)
    assert frozen == want
    with arena.kernel_call("backward", 200) as later:
        arena.free(arena.load("Q", np.ones(20), 8))
        k = arena.load("K", np.ones(1), 8)
        arena.store("dQ", np.empty(1), k)
        arena.free(k)
    k = arena.load("K", np.ones(5), 8)  # outside any call
    arena.store("O", np.empty(5), k)
    arena.free(k)
    assert report() is frozen
    assert frozen == want
    assert later() == TrafficReport({"Q": 20, "K": 1}, {"dQ": 1}, 160)
    assert arena.live_bytes == 80


def test_kernel_call_refuses_before_any_allocation():
    arena = _busy_arena()
    entered = []
    with pytest.raises(
        CapacityError,
        match=r"^backward pass needs 945 bytes of scratchpad, arena has 944 of 1024 available$",
    ):
        with arena.kernel_call("backward", 945):
            entered.append(arena.allocate("c", (1,), 8))
    assert entered == []
    assert arena.live_bytes == 80
    with arena.kernel_call("backward", 944) as report:  # exactly what is free fits
        pass
    assert report() == TrafficReport({}, {}, 0)


@pytest.mark.parametrize("exc", [RuntimeError, CapacityError, KeyboardInterrupt])
def test_kernel_call_restores_the_entry_bytes_on_any_exception(exc):
    arena = _busy_arena()
    with pytest.raises(exc):
        with arena.kernel_call("forward", 944):
            arena.allocate("c", (50,), 8)
            arena.free(arena.allocate("d", (10,), 8))
            arena.load("Q", np.ones(3), 8)
            arena.store("O", np.empty(3), arena.allocate("e", (3,), 8))
            raise exc("injected")
    assert arena.live_bytes == 80
    with arena.kernel_call("forward", 944) as report:  # no partial traffic carried over
        arena.free(arena.allocate("f", (1,), 8))
    assert report() == TrafficReport({}, {}, 8)


def test_over_capacity_allocation_names_required_and_available():
    arena = ScratchpadArena(capacity_bytes=100)
    arena.allocate("base", (10,), 8)
    with pytest.raises(CapacityError) as exc:
        arena.allocate("big", (10,), 8)
    msg = str(exc.value)
    assert "80" in msg and "20" in msg and "100" in msg
    assert arena.live_bytes == 80  # failed allocation leaves occupancy untouched


# Too large for the host's memory, and two requests too large for numpy to index.
@pytest.mark.parametrize("shape", [(10**15,), (10**20,), (2**31, 2**31)], ids=repr)
def test_request_too_large_for_the_host_is_still_a_capacity_error(shape):
    arena = ScratchpadArena(capacity_bytes=100)
    with arena.kernel_call("forward", 16) as report:
        arena.allocate("base", (2,), 8)
        with pytest.raises(CapacityError, match=f"'huge': {math.prod(shape) * 4} bytes requested"):
            arena.allocate("huge", shape, 4)
        assert arena.live_bytes == 16
    assert report().peak_sram_bytes == 16


def test_negative_extent_is_a_shape_error_and_leaves_occupancy_untouched():
    arena = ScratchpadArena(capacity_bytes=100)
    with arena.kernel_call("forward", 16) as report:
        arena.allocate("base", (2,), 8)
        with pytest.raises(ShapeError, match=r"^all extents must be >= 0, got \(-2,\)$"):
            arena.allocate("x", (-2,), 4)
    assert arena.live_bytes == 16
    assert report().peak_sram_bytes == 16


# A bare extent, which numpy would take as its 1-tuple, is not a shape: the extent rule refuses
# it, as tensor.zeros does. The bytes of numpy integers too large for the host are counted in
# Python ints, where numpy's product would wrap.
@pytest.mark.parametrize(
    "shape, error, message",
    [(-1, ShapeError, "a shape is a sequence of extents, got -1"),
     (np.int64(-2), ShapeError, "a shape is a sequence of extents, got np.int64(-2)"),
     (10**20, ShapeError, f"a shape is a sequence of extents, got {10**20}"),
     (np.int64(10**18), ShapeError, f"a shape is a sequence of extents, got np.int64({10**18})"),
     ((np.int64(2 * 10**18),), CapacityError,
      f"scratchpad overflow allocating 'x': {8 * 10**18} bytes requested, 84 of 100 available")],
    ids=["-1", "np.int64(-2)", "10**20", "np.int64(10**18)", "(np.int64(2*10**18),)"],
)
def test_a_bare_extent_is_a_shape_error_and_numpy_extents_count_in_python_ints(
    shape, error, message
):
    arena = ScratchpadArena(capacity_bytes=100)
    arena.allocate("base", (2,), 8)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        arena.allocate("x", shape, 4)
    assert arena.live_bytes == 16 and len(arena._held) == 1


def test_buffer_workspace_is_zeroed_and_writable():
    arena = ScratchpadArena()
    buf = arena.allocate("s", (3, 3), 4)
    assert type(buf) is np.ndarray and buf.dtype == np.float64 and buf.shape == (3, 3)
    assert buf.sum() == 0.0
    buf[1, 1] = 7.0
    assert buf[1, 1] == 7.0


def test_double_free_is_an_error():
    arena = ScratchpadArena()
    buf = arena.allocate("x", (4,), 4)
    arena.free(buf)
    with pytest.raises(FlashwinError):
        arena.free(buf)


def test_free_refuses_a_buffer_of_another_arena():
    a, b = ScratchpadArena(), ScratchpadArena()
    buf = a.allocate("x", (4,), 4)
    with pytest.raises(FlashwinError, match="^cannot free a buffer the arena does not hold$"):
        b.free(buf)
    assert (a.live_bytes, b.live_bytes) == (16, 0)
    a.free(buf)
    assert a.live_bytes == 0


def test_free_refuses_a_buffer_abandoned_by_a_failed_call():
    arena = ScratchpadArena()
    held = arena.allocate("held", (2,), 4)  # outside any call: not abandoned
    with pytest.raises(RuntimeError):
        with arena.kernel_call("forward", 16):
            buf = arena.allocate("x", (4,), 4)
            raise RuntimeError("injected")
    with pytest.raises(FlashwinError, match="^cannot free a buffer the arena does not hold$"):
        arena.free(buf)
    assert arena.live_bytes == 8
    arena.free(held)
    assert arena.live_bytes == 0


def test_store_refuses_a_buffer_of_another_arena():
    a, b = ScratchpadArena(), ScratchpadArena()
    buf = a.allocate("x", (4,), 4)
    dest = np.full(4, 5.0)
    with b.kernel_call("forward", 64) as report:
        with pytest.raises(FlashwinError, match="^cannot store a buffer the arena does not hold$"):
            b.store("O", dest, buf)
    assert report() == TrafficReport({}, {}, 0)
    assert np.array_equal(dest, np.full(4, 5.0))  # nothing was written
    assert (a.live_bytes, b.live_bytes) == (16, 0)


def test_store_refuses_a_freed_buffer():
    arena = ScratchpadArena()
    dest = np.full(4, 5.0)
    with arena.kernel_call("forward", 64) as report:
        buf = arena.allocate("x", (4,), 4)
        arena.free(buf)
        with pytest.raises(FlashwinError, match="^cannot store a buffer the arena does not hold$"):
            arena.store("O", dest, buf)
    assert report() == TrafficReport({}, {}, 16)
    assert np.array_equal(dest, np.full(4, 5.0))
    assert arena.live_bytes == 0


def test_store_and_free_refuse_a_view_of_a_held_buffer():
    arena = ScratchpadArena()
    buf = arena.allocate("x", (2, 2), 4)
    with arena.kernel_call("forward", 0) as report:
        with pytest.raises(FlashwinError, match="^cannot store a buffer"):
            arena.store("O", np.empty(2), buf[0])
        with pytest.raises(FlashwinError, match="^cannot free a buffer"):
            arena.free(buf.T)
    assert report() == TrafficReport({}, {}, 0)
    assert arena.live_bytes == 16
    arena.free(buf)
    assert arena.live_bytes == 0


def test_a_failed_call_leaves_the_held_buffers_as_on_entry():
    # A buffer held on entry and freed inside the failed call is held again,
    # so its bytes can still be released; one allocated inside is not.
    arena = ScratchpadArena()
    held = arena.allocate("held", (4,), 4)
    with pytest.raises(RuntimeError, match="injected"):
        with arena.kernel_call("forward", 64):
            arena.free(held)
            inner = arena.allocate("x", (2,), 4)
            raise RuntimeError("injected")
    assert arena.live_bytes == 16
    with arena.kernel_call("forward", 0) as report:
        arena.store("O", np.empty(4), held)
    assert report() == TrafficReport({}, {"O": 4}, 0)
    arena.free(held)
    assert arena.live_bytes == 0
    with pytest.raises(FlashwinError, match="does not hold"):
        arena.free(inner)
    assert arena.live_bytes == 0


@pytest.mark.parametrize(
    "elem_bytes, message",
    [(0, "4 or 8, got 0"), (-4, "4 or 8, got -4"), (2, "4 or 8, got 2"),
     (1.9, "an integer, got 1.9"), (4.0, "an integer, got 4.0"), (True, "an integer, got True")],
)
def test_an_element_size_other_than_4_or_8_is_refused_and_changes_nothing(elem_bytes, message):
    arena = ScratchpadArena(capacity_bytes=64)
    with arena.kernel_call("forward", 64) as report:
        msg = f"^elem_bytes must be {re.escape(message)}$"
        with pytest.raises(InvalidRangeError, match=msg):
            arena.allocate("neg", (4,), elem_bytes)
        with pytest.raises(InvalidRangeError, match="elem_bytes"):
            arena.load("Q", np.ones(4), elem_bytes)
        assert arena.live_bytes == 0
        with pytest.raises(CapacityError):  # the budget is still 64 B
            arena.allocate("big", (10,), 8)
    assert report() == TrafficReport({}, {}, 0)


@pytest.mark.parametrize(
    "capacity",
    [1.5, float("inf"), float("nan"), -1, -float("inf"), "1024", True, False, None, [64]],
    ids=repr,
)
def test_a_capacity_that_is_not_a_non_negative_integer_is_refused(capacity):
    # Malformed, not too small: an InvalidRangeError, never a CapacityError.
    message = f"capacity must be an integer >= 0, got {capacity!r}"
    with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
        ScratchpadArena(capacity)


def test_a_whole_float_capacity_or_element_size_is_refused_and_a_numpy_integer_is_an_int():
    for capacity in (64.0, np.float64(64.0)):
        with pytest.raises(InvalidRangeError, match="^capacity must be an integer >= 0"):
            ScratchpadArena(capacity)
    arena = ScratchpadArena(np.int64(64))
    assert arena.capacity_bytes == 64 and type(arena.capacity_bytes) is int
    arena.allocate("x", (4,), np.int64(4))
    assert arena.live_bytes == 16 and type(arena.live_bytes) is int
    with pytest.raises(InvalidRangeError, match="^elem_bytes must be an integer, got 4.0$"):
        arena.allocate("x", (4,), 4.0)
    with pytest.raises(InvalidRangeError, match="^elem_bytes must be an integer, got 4.0$"):
        TileConfig(r=1, elem_bytes=4.0)
    assert type(TileConfig(r=1, elem_bytes=np.int64(4)).elem_bytes) is int
    assert arena.live_bytes == 16


@pytest.mark.parametrize("shape", [(2.0,), (True, 2), ("2",), (None,), 2.5], ids=repr)
def test_an_extent_that_is_not_an_integer_is_a_shape_error_and_changes_nothing(shape):
    arena = ScratchpadArena(capacity_bytes=64)
    bare, of_tuple = "a shape is a sequence of extents", "extents must be integers"
    message = f"{of_tuple if type(shape) is tuple else bare}, got {shape}"
    with arena.kernel_call("forward", 64) as report:
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            arena.allocate("x", shape, 4)
    assert arena.live_bytes == 0 and report() == TrafficReport({}, {}, 0)


def test_a_kernel_call_refuses_to_nest():
    arena = ScratchpadArena(capacity_bytes=1024)
    with arena.kernel_call("forward", 1024) as outer:
        arena.free(arena.load("Q", np.ones(4), 8))
        held = arena.allocate("S", (2,), 8)
        with pytest.raises(FlashwinError, match="^backward pass entered while another"):
            with arena.kernel_call("backward", 0):
                arena.load("K", np.ones(9), 8)
        assert arena.live_bytes == 16
        arena.free(arena.load("V", np.ones(4), 8))
        arena.free(held)
    assert outer() == TrafficReport({"Q": 4, "V": 4}, {}, 48)
    with arena.kernel_call("backward", 1024) as later:  # the refusal left no call running
        arena.free(arena.load("K", np.ones(9), 8))
    assert later() == TrafficReport({"K": 9}, {}, 72)


def test_merge_reports_sums_counts_and_keeps_per_peak():
    a = TrafficReport(loads={"Q": 10, "K": 5}, stores={"O": 10}, peak_sram_bytes=128)
    b = TrafficReport(loads={"Q": 10, "V": 7}, stores={"O": 10}, peak_sram_bytes=96)
    merged = merge_reports([a, b])
    assert merged.loads == {"Q": 20, "K": 5, "V": 7}
    assert merged.stores == {"O": 20}
    assert merged.peak_sram_bytes == 128
    assert merged.total_elements() == 52


def test_merge_of_nothing_is_empty():
    merged = merge_reports([])
    assert merged.loads == {} and merged.stores == {} and merged.peak_sram_bytes == 0
