"""Tiled kernels: oracle equivalence, traffic exactness, occupancy, batching."""

import numpy as np
import pytest

from flashwin import (
    AttnParams,
    CapacityError,
    ContextError,
    DenseTensor,
    FlashContext,
    InvalidRangeError,
    Rng,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    batched_flash_forward,
    fill_uniform,
    finite_diff_grad,
    flash_backward,
    flash_forward,
    max_abs_diff,
    naive_backward,
    naive_forward,
    peak_sram_backward,
    peak_sram_forward,
    zeros,
)
from flashwin.harness import FD_STEP, GRAD_TOL

TOL = 1e-10


def rand(rng, shape):
    return fill_uniform(rng, shape, -1.0, 1.0)


def make_qkv(seed, L, C, n=3):
    rng = Rng(seed)
    return tuple(rand(rng, (L, C)) for _ in range(n))


class TestTileConfig:
    def test_chunk_width_is_ceiling(self):
        assert TileConfig(r=4).chunk_width(64) == 16
        assert TileConfig(r=4).chunk_width(10) == 3
        assert TileConfig(r=1).chunk_width(7) == 7

    def test_ragged_spans_cover_all_features_once(self):
        spans = TileConfig(r=4).chunk_spans(10)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidRangeError):
            TileConfig(r=0)
        with pytest.raises(InvalidRangeError):
            TileConfig(r=1, elem_bytes=2)
        with pytest.raises(InvalidRangeError):
            TileConfig(r=1, scale=-1.0)
        with pytest.raises(ShapeError):
            TileConfig(r=5).chunk_width(4)
        with pytest.raises(ShapeError):
            TileConfig(r=3).chunk_width(4)  # ceil(4/3)=2 leaves an empty chunk


class TestPeakFormulas:
    def test_forward_peak_at_typical_setting(self):
        # L=64, chunk width 16, fp32 accounting
        assert peak_sram_forward(64, 64, TileConfig(r=4, elem_bytes=4)) == 24576

    def test_backward_peak_at_typical_setting(self):
        assert peak_sram_backward(64, 64, TileConfig(r=4, elem_bytes=4)) == 40960

    def test_untiled_footprint_at_r1(self):
        cfg = TileConfig(r=1, elem_bytes=4)
        assert peak_sram_forward(32, 48, cfg) == (32 * 32 + 2 * 32 * 48) * 4
        assert peak_sram_backward(32, 48, cfg) == (2 * 32 * 32 + 2 * 32 * 48) * 4

    def test_direct_arithmetic_examples(self):
        assert peak_sram_forward(49, 32, TileConfig(r=2, elem_bytes=4)) == 15876
        assert peak_sram_backward(8, 4, TileConfig(r=2, elem_bytes=8)) == 1280

    def test_maximal_tiling_has_unit_chunks(self):
        cfg = TileConfig(r=32, elem_bytes=4)
        assert cfg.chunk_width(32) == 1
        assert peak_sram_forward(16, 32, cfg) == (16 * 16 + 2 * 16) * 4


def test_chunked_score_accumulation_equals_full_product():
    rng = Rng(31)
    q, k = rand(rng, (12, 64)), rand(rng, (12, 64))
    full = q.array @ k.array.T
    for r in (1, 2, 4, 8):
        acc = np.zeros((12, 12))
        for lo, hi in TileConfig(r=r).chunk_spans(64):
            acc += q.array[:, lo:hi] @ k.array[:, lo:hi].T
        assert np.abs(acc - full).max() <= TOL


class TestFlashForward:
    @pytest.mark.parametrize("L,C", [(1, 16), (2, 16), (8, 32), (49, 32), (64, 64)])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_matches_oracle_with_exact_traffic_and_peak(self, L, C, r):
        q, k, v = make_qkv(40 + L + C + r, L, C)
        cfg = TileConfig(r=r)
        arena = ScratchpadArena()
        o, ctx, report = flash_forward(q, k, v, cfg, arena)
        o_ref, _ = naive_forward(q, k, v)
        assert max_abs_diff(o, o_ref) <= TOL
        assert report.loads == {"Q": L * C, "K": L * C, "V": L * C}
        assert report.stores == {"O": L * C}
        assert report.peak_sram_bytes == peak_sram_forward(L, C, cfg)
        assert arena.live_bytes == 0
        assert ctx.q is q and ctx.k is k and ctx.v is v

    def test_no_global_intermediates(self):
        # every global access is counted per operand, so the key sets prove
        # no score/weight matrix ever crosses the global-memory boundary
        q, k, v = make_qkv(41, 16, 16)
        _, _, report = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        assert set(report.loads) == {"Q", "K", "V"}
        assert set(report.stores) == {"O"}

    def test_traffic_counts_at_benchmark_shape(self):
        q, k, v = make_qkv(42, 64, 64)
        _, _, report = flash_forward(q, k, v, TileConfig(r=4), ScratchpadArena())
        assert report.loads == {"Q": 4096, "K": 4096, "V": 4096}
        assert report.stores == {"O": 4096}

    def test_zero_keys_give_column_means_for_any_r(self):
        rng = Rng(43)
        q, v = rand(rng, (6, 8)), rand(rng, (6, 8))
        means = np.tile(v.array.mean(axis=0), (6, 1))
        for r in (1, 2, 4):
            o, _, _ = flash_forward(q, zeros([6, 8]), v, TileConfig(r=r), ScratchpadArena())
            assert np.abs(o.array - means).max() <= 1e-15

    def test_ragged_chunks_still_match_oracle(self):
        q, k, v = make_qkv(44, 8, 10)
        cfg = TileConfig(r=4)  # widths 3,3,3,1
        o, _, report = flash_forward(q, k, v, cfg, ScratchpadArena())
        o_ref, _ = naive_forward(q, k, v)
        assert max_abs_diff(o, o_ref) <= TOL
        assert report.loads == {"Q": 80, "K": 80, "V": 80}
        assert report.peak_sram_bytes == peak_sram_forward(8, 10, cfg)

    def test_scale_propagates_like_the_oracle(self):
        q, k, v = make_qkv(45, 8, 16)
        from flashwin import AttnParams

        o, _, _ = flash_forward(q, k, v, TileConfig(r=2, scale=0.25), ScratchpadArena())
        o_ref, _ = naive_forward(q, k, v, AttnParams(scale=0.25))
        assert max_abs_diff(o, o_ref) <= TOL

    def test_large_window_exceeds_default_budget(self):
        q, k, v = make_qkv(46, 1024, 32)
        with pytest.raises(CapacityError) as exc:
            flash_forward(q, k, v, TileConfig(r=2, elem_bytes=4), ScratchpadArena(131072))
        msg = str(exc.value)
        assert "131072" in msg  # names available budget
        assert str(peak_sram_forward(1024, 32, TileConfig(r=2, elem_bytes=4))) in msg
        naive_forward(q, k, v)  # the untiled path still runs

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            flash_forward(zeros([2, 4]), zeros([2, 4]), zeros([2, 6]),
                          TileConfig(r=1), ScratchpadArena())


class TestFlashBackward:
    @pytest.mark.parametrize("L,C", [(1, 16), (2, 16), (8, 32), (49, 32), (64, 64)])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_matches_analytic_oracle(self, L, C, r):
        rng = Rng(50 + L + C + r)
        q, k, v, do = (rand(rng, (L, C)) for _ in range(4))
        cfg = TileConfig(r=r)
        _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
        arena = ScratchpadArena()
        dq, dk, dv, report = flash_backward(ctx, do, arena)
        _, cache = naive_forward(q, k, v)
        ndq, ndk, ndv = naive_backward(q, k, v, cache, do)
        assert max_abs_diff(dq, ndq) <= TOL
        assert max_abs_diff(dk, ndk) <= TOL
        assert max_abs_diff(dv, ndv) <= TOL
        assert report.loads == {"Q": 2 * L * C, "K": 2 * L * C, "V": L * C, "dO": L * C}
        assert report.stores == {"dQ": L * C, "dK": L * C, "dV": L * C}
        assert report.peak_sram_bytes == peak_sram_backward(L, C, cfg)
        assert arena.live_bytes == 0

    def test_peak_holds_when_chunks_wider_than_sequence(self):
        # C/r > L stresses the gradient-phase schedule
        rng = Rng(51)
        q, k, v, do = (rand(rng, (2, 64)) for _ in range(4))
        cfg = TileConfig(r=1)
        _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
        arena = ScratchpadArena()
        *_, report = flash_backward(ctx, do, arena)
        assert report.peak_sram_bytes == peak_sram_backward(2, 64, cfg)

    def test_traffic_counts_at_benchmark_shape(self):
        rng = Rng(52)
        q, k, v, do = (rand(rng, (64, 64)) for _ in range(4))
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=4), ScratchpadArena())
        *_, report = flash_backward(ctx, do, ScratchpadArena())
        assert report.loads == {"Q": 8192, "K": 8192, "V": 4096, "dO": 4096}
        assert report.stores == {"dQ": 4096, "dK": 4096, "dV": 4096}

    def test_zero_upstream_gradient_keeps_traffic(self):
        q, k, v = make_qkv(53, 8, 16)
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        dq, dk, dv, report = flash_backward(ctx, zeros([8, 16]), ScratchpadArena())
        for g in (dq, dk, dv):
            assert np.array_equal(g.array, np.zeros((8, 16)))
        assert report.loads == {"Q": 256, "K": 256, "V": 128, "dO": 128}

    def test_matches_finite_differences(self):
        rng = Rng(54)
        q, k, v, do = (rand(rng, (8, 4)) for _ in range(4))
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        dq, dk, dv, _ = flash_backward(ctx, do, ScratchpadArena())

        def of(qq, kk, vv):
            return (do.array * naive_forward(qq, kk, vv)[0].array).sum(axis=(-2, -1))

        assert max_abs_diff(dq, finite_diff_grad(lambda t: of(t, k, v), q, 1e-5)) <= 1e-6
        assert max_abs_diff(dk, finite_diff_grad(lambda t: of(q, t, v), k, 1e-5)) <= 1e-6
        assert max_abs_diff(dv, finite_diff_grad(lambda t: of(q, k, t), v, 1e-5)) <= 1e-6

    def test_matches_finite_differences_at_swin_shape(self):
        # One Swin window head: 7x7 tokens, head dim 32, softmax scale 32**-0.5.
        L, C, scale = 49, 32, 32**-0.5
        rng = Rng(57)
        q, k, v, do = (rand(rng, (L, C)) for _ in range(4))
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=2, scale=scale), ScratchpadArena())
        dq, dk, dv, _ = flash_backward(ctx, do, ScratchpadArena())
        params = AttnParams(scale=scale)

        def of(qq, kk, vv):
            return (do.array * naive_forward(qq, kk, vv, params)[0].array).sum(axis=(-2, -1))

        for grad, fd in (
            (dq, finite_diff_grad(lambda t: of(t, k, v), q, FD_STEP)),
            (dk, finite_diff_grad(lambda t: of(q, t, v), k, FD_STEP)),
            (dv, finite_diff_grad(lambda t: of(q, k, t), v, FD_STEP)),
        ):
            assert max_abs_diff(grad, fd) <= GRAD_TOL

    def test_do_shape_must_match_context(self):
        q, k, v = make_qkv(55, 4, 8)
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        with pytest.raises(ShapeError):
            flash_backward(ctx, zeros([4, 6]), ScratchpadArena())

    def test_unusable_context_rejected(self):
        with pytest.raises(ContextError):
            flash_backward(None, zeros([2, 2]), ScratchpadArena())
        with pytest.raises(ContextError):
            flash_backward(
                FlashContext(q=None, k=None, v=None, cfg=TileConfig(r=1)),
                zeros([2, 2]),
                ScratchpadArena(),
            )

    def test_budget_enforced_before_any_work(self):
        q, k, v = make_qkv(56, 16, 16)
        cfg = TileConfig(r=1, elem_bytes=8)
        _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
        small = ScratchpadArena(peak_sram_backward(16, 16, cfg) - 1)
        with pytest.raises(CapacityError):
            flash_backward(ctx, zeros([16, 16]), small)
        assert small.live_bytes == 0

    def test_busy_arena_refused_before_any_allocation(self):
        # Capacity equal to the peak, 4 B already live: the kernel must be
        # refused up front, not overflow partway and keep its buffers.
        q, k, v = make_qkv(57, 8, 8)
        cfg = TileConfig(r=2)
        _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
        for peak, run in (
            (peak_sram_forward(8, 8, cfg), lambda a: flash_forward(q, k, v, cfg, a)),
            (peak_sram_backward(8, 8, cfg), lambda a: flash_backward(ctx, zeros([8, 8]), a)),
        ):
            arena = ScratchpadArena(peak)
            arena.allocate("held", (1,), 4)
            with pytest.raises(CapacityError, match=f"has {peak - 4} of {peak} available"):
                run(arena)
            assert arena.live_bytes == 4
            assert arena.peak_bytes == 4


class TestChunkCountInvariance:
    @pytest.mark.parametrize("L,C", [(8, 16), (49, 32), (64, 64)])
    def test_outputs_and_gradients_agree_across_r(self, L, C):
        rng = Rng(60)
        q, k, v, do = (rand(rng, (L, C)) for _ in range(4))
        outs, grads = [], []
        for r in (1, 2, 4, 8):
            cfg = TileConfig(r=r)
            o, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
            outs.append(o)
            grads.append(flash_backward(ctx, do, ScratchpadArena())[:3])
        for o in outs[1:]:
            assert max_abs_diff(outs[0], o) <= TOL
        for g in grads[1:]:
            for a, b in zip(grads[0], g):
                assert max_abs_diff(a, b) <= TOL


class TestBatchedForward:
    def test_merged_counts_scale_with_slices(self):
        rng = Rng(70)
        shape = (4, 4, 64, 64)
        q, k, v = (rand(rng, shape) for _ in range(3))
        _, _, report = batched_flash_forward(
            q, k, v, TileConfig(r=4), [ScratchpadArena()]
        )
        assert report.loads["Q"] == 4 * 4 * 4096 == 65536
        assert report.stores["O"] == 65536
        assert report.peak_sram_bytes == 24576

    def test_single_slice_equals_plain_forward(self):
        rng = Rng(71)
        q, k, v = (rand(rng, (1, 1, 8, 16)) for _ in range(3))
        out, contexts, report = batched_flash_forward(
            q, k, v, TileConfig(r=2), [ScratchpadArena()]
        )
        flat = lambda t: DenseTensor((8, 16), t.array[0, 0])
        o_single, _, rep_single = flash_forward(
            flat(q), flat(k), flat(v), TileConfig(r=2), ScratchpadArena()
        )
        assert np.array_equal(out.array[0, 0], o_single.array)
        assert report.loads == rep_single.loads
        assert len(contexts) == 1 and len(contexts[0]) == 1

    def test_every_slice_matches_the_oracle(self):
        rng = Rng(72)
        shape = (2, 4, 64, 16)
        q, k, v = (rand(rng, shape) for _ in range(3))
        out, _, _ = batched_flash_forward(q, k, v, TileConfig(r=1), [ScratchpadArena()])
        for b in range(2):
            for h in range(4):
                sl = lambda t: DenseTensor((64, 16), t.array[b, h])
                o_ref, _ = naive_forward(sl(q), sl(k), sl(v))
                assert max_abs_diff(DenseTensor((64, 16), out.array[b, h]), o_ref) <= TOL

    def test_worker_count_does_not_change_results(self):
        rng = Rng(73)
        shape = (3, 2, 16, 16)
        q, k, v = (rand(rng, shape) for _ in range(3))
        cfg = TileConfig(r=2)
        out1, _, rep1 = batched_flash_forward(q, k, v, cfg, [ScratchpadArena()])
        out3, _, rep3 = batched_flash_forward(
            q, k, v, cfg, [ScratchpadArena() for _ in range(3)]
        )
        assert np.array_equal(out1.array, out3.array)
        assert rep1.loads == rep3.loads and rep1.stores == rep3.stores
        assert rep1.peak_sram_bytes == rep3.peak_sram_bytes

    def test_equals_a_per_slice_loop_on_copied_slices(self):
        rng = Rng(76)
        q, k, v = (rand(rng, (2, 4, 64, 256)) for _ in range(3))
        cfg = TileConfig(r=16, scale=256**-0.5)
        out, _, report = batched_flash_forward(q, k, v, cfg, [ScratchpadArena()])
        arena = ScratchpadArena()
        for b in range(2):
            for h in range(4):
                sl = lambda t: DenseTensor((64, 256), t.array[b, h].copy())
                o, _, rep = flash_forward(sl(q), sl(k), sl(v), cfg, arena)
                assert np.array_equal(out.array[b, h], o.array)
        assert report.loads == {name: 8 * n for name, n in rep.loads.items()}
        assert report.stores == {name: 8 * n for name, n in rep.stores.items()}
        assert list(report.loads) == ["Q", "K", "V"]
        assert report.peak_sram_bytes == peak_sram_forward(64, 256, cfg)

    def test_contexts_are_read_only_views_of_the_input(self):
        rng = Rng(77)
        q, k, v = (rand(rng, (2, 3, 8, 16)) for _ in range(3))
        out, contexts, _ = batched_flash_forward(q, k, v, TileConfig(r=2), [ScratchpadArena()])
        assert not out.array.flags.writeable
        for b in range(2):
            for h in range(3):
                ctx = contexts[b][h]
                for sl, full in ((ctx.q, q), (ctx.k, k), (ctx.v, v)):
                    assert np.shares_memory(sl.array, full.array[b, h])
                    assert np.array_equal(sl.array, full.array[b, h])
                    assert not sl.array.flags.writeable
                    with pytest.raises(ValueError):
                        sl.array[0, 0] = 1.0

    def test_failures_name_the_slice(self):
        rng = Rng(74)
        q, k, v = (rand(rng, (2, 2, 64, 64)) for _ in range(3))
        with pytest.raises(CapacityError, match=r"slice \(b=0, head=0\)"):
            batched_flash_forward(q, k, v, TileConfig(r=1), [ScratchpadArena(1024)])

    def test_requires_4d_inputs_and_an_arena(self):
        rng = Rng(75)
        q, k, v = (rand(rng, (4, 8)) for _ in range(3))
        with pytest.raises(ShapeError):
            batched_flash_forward(q, k, v, TileConfig(r=1), [ScratchpadArena()])
        q4, k4, v4 = (rand(rng, (1, 1, 4, 8)) for _ in range(3))
        with pytest.raises(InvalidRangeError):
            batched_flash_forward(q4, k4, v4, TileConfig(r=1), [])
