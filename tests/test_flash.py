"""Tiled kernels: oracle equivalence, traffic exactness, occupancy, batching."""

import itertools

import numpy as np
import pytest

from flashwin import (
    AttnParams,
    CapacityError,
    DenseTensor,
    FlashContext,
    FlashwinError,
    InvalidRangeError,
    NumericsError,
    Rng,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    batched_flash_forward,
    fill_uniform,
    finite_diff_grad,
    flash,
    flash_backward,
    flash_forward,
    max_abs_diff,
    naive_backward,
    naive_forward,
    peak_sram_backward,
    peak_sram_forward,
    softmax_rows,
    zeros,
)
from flashwin.flash import _softmax_grad_inplace
from flashwin.harness import FD_STEP, GRAD_TOL

TOL = 1e-10


class _CountingArena(ScratchpadArena):
    """An arena that records the name of every allocation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.names = []

    def allocate(self, name, shape, elem_bytes):
        self.names.append(name)
        return super().allocate(name, shape, elem_bytes)


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

    def test_ragged_spans_are_balanced(self):
        assert TileConfig(r=4).chunk_spans(10) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        assert TileConfig(r=3).chunk_spans(4) == [(0, 1), (1, 2), (2, 4)]  # no empty chunk

    def test_every_count_up_to_C_tiles_it(self):
        for C in range(1, 65):
            for r in range(1, C + 1):
                cfg = TileConfig(r=r)
                spans = cfg.chunk_spans(C)
                assert spans[0][0] == 0 and spans[-1][1] == C
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                widths = [hi - lo for lo, hi in spans]
                assert max(widths) - min(widths) <= 1 and min(widths) >= 1
                assert max(widths) == cfg.chunk_width(C)
                if C % r == 0:  # the spans every golden file was made with
                    cw = C // r
                    assert spans == [(i * cw, (i + 1) * cw) for i in range(r)]

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidRangeError):
            TileConfig(r=0)
        for r in (2.5, 2.0):  # not left to fail in chunk_spans' range()
            with pytest.raises(InvalidRangeError, match=f"integer >= 1, got {r}$"):
                TileConfig(r=r)
        with pytest.raises(InvalidRangeError, match="^elem_bytes must be 4 or 8, got 2$"):
            TileConfig(r=1, elem_bytes=2)  # the arena's rule and message
        with pytest.raises(InvalidRangeError):
            TileConfig(r=1, scale=-1.0)
        with pytest.raises(ShapeError, match="^chunk count 5 exceeds feature count 4$"):
            TileConfig(r=5).chunk_width(4)
        with pytest.raises(ShapeError):
            TileConfig(r=5).chunk_spans(4)


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

    @pytest.mark.parametrize("peak", [peak_sram_forward, peak_sram_backward])
    @pytest.mark.parametrize("L, C", [(0, 16), (16, 0), (-1, 16)])
    def test_extents_below_one_rejected(self, peak, L, C):
        with pytest.raises(ShapeError, match=rf"^all extents must be >= 1, got \({L}, {C}\)$"):
            peak(L, C, TileConfig(r=1))


def test_chunked_score_accumulation_equals_full_product():
    rng = Rng(31)
    q, k = rand(rng, (12, 64)), rand(rng, (12, 64))
    full = q.array @ k.array.T
    for r in (1, 2, 4, 8):
        acc = np.zeros((12, 12))
        for lo, hi in TileConfig(r=r).chunk_spans(64):
            acc += q.array[:, lo:hi] @ k.array[:, lo:hi].T
        assert np.abs(acc - full).max() <= TOL


@pytest.mark.parametrize("L", [49, 64])
def test_softmax_grad_equals_per_row_loop(L):
    rng = Rng(70 + L)
    p = softmax_rows(rand(rng, (L, L))).array.copy()
    dp = rand(rng, (L, L)).array.copy()
    want = dp.copy()
    for i in range(L):
        rho = float(np.dot(p[i], want[i]))
        want[i] -= rho
        want[i] *= p[i]
    _softmax_grad_inplace(p, dp)
    assert np.array_equal(dp, want)


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
        # no score/weight matrix ever crosses the global-memory boundary;
        # the keys are listed in first-touch order
        q, k, v = make_qkv(41, 16, 16)
        _, _, report = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        assert list(report.loads) == ["Q", "K", "V"]
        assert list(report.stores) == ["O"]

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

    def test_operands_must_be_2d(self):
        q = zeros([1, 2, 4])
        arena = ScratchpadArena()
        with pytest.raises(ShapeError, match=r"^Q/K/V must be 2-D, got \(1, 2, 4\)$"):
            flash_forward(q, q, q, TileConfig(r=1), arena)
        assert arena.live_bytes == 0


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
        _, p = naive_forward(q, k, v)
        ndq, ndk, ndv = naive_backward(q, k, v, p, do)
        assert max_abs_diff(dq, ndq) <= TOL
        assert max_abs_diff(dk, ndk) <= TOL
        assert max_abs_diff(dv, ndv) <= TOL
        assert report.loads == {"Q": 2 * L * C, "K": 2 * L * C, "V": L * C, "dO": L * C}
        assert report.stores == {"dQ": L * C, "dK": L * C, "dV": L * C}
        assert report.peak_sram_bytes == peak_sram_backward(L, C, cfg)
        assert arena.live_bytes == 0

    def test_gradients_are_read_only_and_reproducible(self):
        q, k, v, do = make_qkv(61, 8, 32, n=4)
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        grads = flash_backward(ctx, do, ScratchpadArena())[:3]
        again = flash_backward(ctx, do, ScratchpadArena())[:3]
        for g, fresh in zip(grads, again):
            with pytest.raises(ValueError):
                g.array[0, 0] = 1.0
            assert np.array_equal(g.array, fresh.array)
            assert not np.shares_memory(g.array, fresh.array)

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

    def test_no_global_intermediates(self):
        # first-touch order: recompute (Q, K), dV/dP stream (dO, V), dQ/dK stream
        q, k, v, do = make_qkv(41, 16, 16, n=4)
        _, ctx, _ = flash_forward(q, k, v, TileConfig(r=2), ScratchpadArena())
        *_, report = flash_backward(ctx, do, ScratchpadArena())
        assert list(report.loads) == ["Q", "K", "dO", "V"]
        assert list(report.stores) == ["dV", "dQ", "dK"]

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
        with pytest.raises(FlashwinError, match="backward requires the context"):
            flash_backward(None, zeros([2, 2]), ScratchpadArena())
        with pytest.raises(FlashwinError, match="backward requires the context"):
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
            arena = _CountingArena(peak)
            arena.allocate("held", (1,), 4)
            with pytest.raises(CapacityError, match=f"has {peak - 4} of {peak} available"):
                run(arena)
            assert arena.live_bytes == 4
            assert arena.names == ["held"]

    def test_nan_in_q_raises_like_the_reference_and_frees_the_scores(self):
        q, k, v = make_qkv(58, 8, 16)
        bad = q.array.copy()
        bad[3, 5] = np.nan
        q = DenseTensor(q.shape, bad)
        cfg = TileConfig(r=2)
        with pytest.raises(NumericsError):
            naive_forward(q, k, v)
        ctx = FlashContext(q=q, k=k, v=v, cfg=cfg)
        for run in (
            lambda a: flash_forward(q, k, v, cfg, a),
            lambda a: flash_backward(ctx, zeros([8, 16]), a),
        ):
            arena = ScratchpadArena()
            arena.allocate("held", (1,), 4)
            with pytest.raises(NumericsError, match="non-finite"):
                run(arena)
            assert arena.live_bytes == 4

    def test_report_peak_is_the_calls_own_on_a_reused_arena(self):
        arena = ScratchpadArena()
        flash_forward(*make_qkv(59, 64, 64), TileConfig(r=4), arena)
        q, k, v = make_qkv(60, 8, 16)
        cfg = TileConfig(r=2)
        _, ctx, rep = flash_forward(q, k, v, cfg, arena)
        assert rep.peak_sram_bytes == peak_sram_forward(8, 16, cfg) == 768
        *_, rep = flash_backward(ctx, zeros([8, 16]), arena)
        assert rep.peak_sram_bytes == peak_sram_backward(8, 16, cfg)
        assert arena.live_bytes == 0
        arena.allocate("held", (1,), 4)
        _, _, rep = flash_forward(q, k, v, cfg, arena)
        assert rep.peak_sram_bytes == 768  # measured above the live bytes on entry
        assert arena.live_bytes == 4


class _Poisoned(np.ndarray):
    """An array whose ufunc calls, matmul included, raise."""

    def __array_ufunc__(self, *args, **kwargs):
        raise RuntimeError("injected matmul failure")


def _inject(monkeypatch, step, n):
    """Make the n-th call of one kernel step fail partway through the kernel.

    ``load`` (:meth:`ScratchpadArena.load`), ``_emit`` and
    ``_softmax_grad_inplace`` raise on entry; ``score`` raises right after
    the n-th K chunk is loaded, with the scores and the n-th Q/K pair on
    chip, where the score matmul would run; ``tile`` poisons the n-th
    ``_emit``'s left operand so that its matmul raises after the tile is
    allocated.
    """
    owner = ScratchpadArena if step in ("load", "score") else flash
    name = {"score": "load", "tile": "_emit"}.get(step, step)
    orig = getattr(owner, name)
    calls = itertools.count(1)

    def failing(*args):
        if step == "score":
            buf = orig(*args)
            if args[1] == "K" and next(calls) == n:
                raise RuntimeError("injected failure before the score matmul")
            return buf
        if next(calls) != n:
            return orig(*args)
        if step == "tile":
            return orig(*args[:3], args[3].view(_Poisoned), *args[4:])
        raise RuntimeError(f"injected failure in {name}")

    monkeypatch.setattr(owner, name, failing)


# At L=8, C=16, r=2 the forward loads Q,K,Q,K then V,V and emits O twice;
# the backward loads Q,K,Q,K | dO,V,dO,V | K,Q,K,Q and emits dV,dV then
# dQ,dK,dQ,dK. Every phase of both kernels gets a failure.
INJECTED = [
    ("forward", "load", 1),
    ("forward", "load", 4),
    ("forward", "score", 2),
    ("forward", "load", 5),
    ("forward", "_emit", 2),
    ("forward", "tile", 1),
    ("backward", "load", 2),
    ("backward", "score", 1),
    ("backward", "load", 6),
    ("backward", "_emit", 1),
    ("backward", "tile", 2),
    ("backward", "_softmax_grad_inplace", 1),
    ("backward", "load", 9),
    ("backward", "_emit", 3),
    ("backward", "tile", 6),
    ("backward", "load", 12),
]


class TestFailureContract:
    @pytest.mark.parametrize("kernel, step, n", INJECTED)
    def test_injected_failure_leaves_the_entry_live_bytes(self, monkeypatch, kernel, step, n):
        q, k, v, do = make_qkv(61, 8, 16, n=4)
        cfg = TileConfig(r=2)
        _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
        _inject(monkeypatch, step, n)
        arena = ScratchpadArena()
        held = arena.allocate("held", (1,), 4)
        with pytest.raises(RuntimeError, match="injected"):
            if kernel == "forward":
                flash_forward(q, k, v, cfg, arena)
            else:
                flash_backward(ctx, do, arena)
        assert arena.live_bytes == 4
        arena.free(held)  # the entry buffer is all the arena holds
        assert arena.live_bytes == 0

    def test_nan_in_v_or_do_reaches_the_same_positions_as_the_reference(self):
        # Only the scores are checked; a NaN elsewhere propagates, identically.
        q, k, v, do = make_qkv(62, 8, 16, n=4)
        cfg = TileConfig(r=2)

        def nan_masks(v, do):
            o, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena())
            o_ref, p = naive_forward(q, k, v)
            got = (o, *flash_backward(ctx, do, ScratchpadArena())[:3])
            want = (o_ref, *naive_backward(q, k, v, p, do))
            for g, w in zip(got, want):
                nan = np.isnan(w.array)
                assert np.array_equal(np.isnan(g.array), nan)
                assert np.allclose(g.array[~nan], w.array[~nan], rtol=0, atol=TOL)
            return [np.isnan(t.array) for t in got]

        def with_nan(t, i, j):
            a = t.array.copy()
            a[i, j] = np.nan
            return DenseTensor(t.shape, a)

        o, dq, dk, dv = nan_masks(with_nan(v, 3, 5), do)
        assert o[:, 5].all() and o.sum() == 8
        assert dq.all() and dk.all() and not dv.any()
        o, dq, dk, dv = nan_masks(v, with_nan(do, 2, 9))
        assert not o.any()
        assert dq[2].all() and dq.sum() == 16
        assert dv[:, 9].all() and dv.sum() == 8
        assert dk.all()


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
