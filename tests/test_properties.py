"""Property tests of the tiled kernels over the inputs the API accepts.

Hypothesis draws L and C up to 64, any chunk count r that tiles C, a scale
in (0, 2], both accounting element sizes, the bytes already held in the
arena and its capacity. Examples are derandomized and bounded, so the
suite draws the same cases on every run.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashwin import (
    CapacityError,
    FlashContext,
    Rng,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    fill_uniform,
    flash_backward,
    flash_forward,
    naive_backward,
    naive_forward,
    peak_sram_backward,
    peak_sram_forward,
)
from flashwin.harness import ORACLE_TOL, expected_backward_traffic, expected_forward_traffic
from flashwin.reference import AttnParams

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _tiles(r, C):
    try:
        TileConfig(r=r).chunk_width(C)
    except ShapeError:
        return False
    return True


@st.composite
def problems(draw):
    """(q, k, v, dO, cfg, held bytes): one attention problem and an arena's prior load."""
    L = draw(st.integers(1, 64))
    C = draw(st.integers(1, 64))
    r = draw(st.sampled_from([r for r in range(1, C + 1) if _tiles(r, C)]))
    scale = draw(st.floats(0, 2, exclude_min=True))
    cfg = TileConfig(r=r, scale=scale, elem_bytes=draw(st.sampled_from([4, 8])))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v, do = (fill_uniform(rng, (L, C), -1.0, 1.0) for _ in range(4))
    return q, k, v, do, cfg, 4 * draw(st.integers(0, 256))


def _arena(capacity, held):
    arena = ScratchpadArena(capacity)
    if held:
        arena.allocate("held", (held // 4,), 4)
    return arena


def _max_err(got, want):
    return max(float(np.max(np.abs(g.array - w.array))) for g, w in zip(got, want))


@PROPERTY
@given(problems())
def test_kernels_match_the_reference_and_the_closed_forms(problem):
    q, k, v, do, cfg, held = problem
    L, C = q.shape
    fwd_peak, bwd_peak = peak_sram_forward(L, C, cfg), peak_sram_backward(L, C, cfg)
    assert fwd_peak == (L * L + 2 * L * cfg.chunk_width(C)) * cfg.elem_bytes
    assert bwd_peak == fwd_peak + L * L * cfg.elem_bytes
    arena = _arena(held + bwd_peak, held)
    params = AttnParams(scale=cfg.scale)

    o, ctx, rep = flash_forward(q, k, v, cfg, arena)
    o_ref, p = naive_forward(q, k, v, params)
    assert _max_err([o], [o_ref]) <= ORACLE_TOL
    assert (rep.loads, rep.stores) == expected_forward_traffic(L, C)
    assert rep.peak_sram_bytes == fwd_peak
    assert arena.live_bytes == held

    *grads, rep = flash_backward(ctx, do, arena)
    assert _max_err(grads, naive_backward(q, k, v, p, do, params)) <= ORACLE_TOL
    assert (rep.loads, rep.stores) == expected_backward_traffic(L, C)
    assert rep.peak_sram_bytes == bwd_peak
    assert arena.live_bytes == held


@PROPERTY
@given(problems(), st.sampled_from(["forward", "backward"]), st.data())
def test_refused_if_and_only_if_the_formula_exceeds_the_free_bytes(problem, kernel, data):
    q, k, v, do, cfg, held = problem
    L, C = q.shape
    if kernel == "forward":
        need = peak_sram_forward(L, C, cfg)
        run = lambda arena: flash_forward(q, k, v, cfg, arena)
    else:
        need = peak_sram_backward(L, C, cfg)
        run = lambda arena: flash_backward(FlashContext(q, k, v, cfg), do, arena)
    slack = data.draw(st.sampled_from([-1, 0]) | st.integers(-need, need), label="slack")
    arena = _arena(max(held, held + need + slack), held)
    free = arena.capacity_bytes - held

    if need > free:
        with pytest.raises(CapacityError, match=f"needs {need} bytes .* has {free} of"):
            run(arena)
    else:
        assert run(arena)[-1].peak_sram_bytes == need
    assert arena.live_bytes == held


@settings(PROPERTY, max_examples=30)
@given(problems(), st.sampled_from(["forward", "backward"]), st.data())
def test_a_failed_load_leaves_the_entry_live_bytes(problem, kernel, data):
    q, k, v, do, cfg, held = problem
    L, C = q.shape
    # The forward makes 3r loads, the backward 6r; fail after the n-th is on chip.
    n = data.draw(st.integers(1, (3 if kernel == "forward" else 6) * cfg.r), label="n")
    arena = _arena(held + peak_sram_backward(L, C, cfg), held)
    calls = itertools.count(1)

    def load(*args):
        buf = orig(*args)
        if next(calls) == n:
            raise RuntimeError("injected load failure")
        return buf

    orig = ScratchpadArena.load
    with pytest.MonkeyPatch.context() as mp, pytest.raises(RuntimeError, match="injected"):
        mp.setattr(ScratchpadArena, "load", load)
        if kernel == "forward":
            flash_forward(q, k, v, cfg, arena)
        else:
            flash_backward(FlashContext(q, k, v, cfg), do, arena)
    assert arena.live_bytes == held
