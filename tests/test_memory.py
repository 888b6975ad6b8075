"""Scratchpad arena bookkeeping and traffic-report merging."""

import pytest

from flashwin import (
    CapacityError,
    FlashwinError,
    ScratchpadArena,
    ShapeError,
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
    a = arena.allocate("a", (10,), 8)
    b = arena.allocate("b", (20,), 8)
    arena.free(b)
    c = arena.allocate("c", (5,), 8)
    assert arena.peak_bytes == 240
    arena.free(a)
    arena.free(c)
    assert arena.peak_bytes == 240
    assert arena.live_bytes == 0


def test_over_capacity_allocation_names_required_and_available():
    arena = ScratchpadArena(capacity_bytes=100)
    arena.allocate("base", (10,), 8)
    with pytest.raises(CapacityError) as exc:
        arena.allocate("big", (10,), 8)
    msg = str(exc.value)
    assert "80" in msg and "20" in msg and "100" in msg
    assert arena.live_bytes == 80  # failed allocation leaves occupancy untouched


def test_request_too_large_for_the_host_is_still_a_capacity_error():
    arena = ScratchpadArena(capacity_bytes=100)
    with pytest.raises(CapacityError, match="4000000000000000 bytes requested"):
        arena.allocate("huge", (10**15,), 4)
    assert arena.live_bytes == 0 and arena.peak_bytes == 0


def test_negative_extent_is_a_shape_error_and_leaves_occupancy_untouched():
    arena = ScratchpadArena(capacity_bytes=100)
    arena.allocate("base", (2,), 8)
    with pytest.raises(ShapeError, match="'x'"):
        arena.allocate("x", (-2,), 4)
    assert arena.live_bytes == 16
    assert arena.peak_bytes == 16


def test_buffer_workspace_is_zeroed_and_writable():
    arena = ScratchpadArena()
    buf = arena.allocate("s", (3, 3), 4)
    assert buf.array.sum() == 0.0
    buf.array[1, 1] = 7.0
    assert buf.array[1, 1] == 7.0


def test_double_free_is_an_error():
    arena = ScratchpadArena()
    buf = arena.allocate("x", (4,), 4)
    arena.free(buf)
    with pytest.raises(FlashwinError):
        arena.free(buf)


def test_merge_reports_sums_counts_and_keeps_per_worker_peak():
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
