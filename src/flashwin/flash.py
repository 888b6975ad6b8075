"""Feature-tiled window attention executed against the two-level memory model.

Q, K, V are split into r balanced chunks along the feature dimension:
chunk i holds features [i*C//r, (i+1)*C//r), so every r from 1 to C tiles
C and no two chunk widths differ by more than one. The forward kernel
accumulates S = sum_i Q_i K_i^T in a scratchpad buffer, applies the softmax
in place, then streams the output out chunk by chunk, so each of Q, K, V, O
crosses the global-memory boundary exactly once. The backward
kernel recomputes the attention weights on chip from Q and K (they are
deliberately reloaded, never cached across phases), streams dV and the dP
accumulation in a second pass, converts dP to dS in place, and streams dQ
and dK in a third pass. Both build the weights through one score path
(``_weights``) and write every output tile through one step (``_emit``).
They only compute: the arena allocates, loads, stores and reports, and
every on-chip buffer is a plain float64 array that the arena holds from
``allocate`` or ``load`` until ``free``.

Scratchpad schedules are arranged so that the instrumented peak equals the
closed forms (L^2 + 2*L*cw forward, 2*L^2 + 2*L*cw backward, cw = ceil(C/r)
features in the widest chunk):

* forward: S lives throughout; Q_i/K_i are co-resident per iteration and
  freed before the next; in the output loop V_i and the O_i tile are
  co-resident with the weights.
* backward phase 2 folds the dP accumulation before the dV_i product so
  the V_i slot can be reused for the dV_i tile (the literal statement
  order would need a third chunk slot).
* backward phase 3 loads K_i for dQ_i and Q_i for dK_i sequentially
  rather than together, which keeps the phase under the claimed peak even
  when chunks are wider than the sequence is long.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import FlashwinError, InvalidRangeError, ShapeError
from .memory import ScratchpadArena, TrafficReport, _checked_elem_bytes, merge_reports
from .reference import AttnParams, _softmax_rows
from .tensor import DenseTensor, _validated


@dataclass(frozen=True)
class TileConfig:
    """Feature tiling: r chunks (any integer 1..C tiles C features), scale, accounting bytes."""

    r: int
    scale: float = 1.0
    elem_bytes: int = 4

    def __post_init__(self):
        if not isinstance(self.r, Integral) or self.r < 1:
            raise InvalidRangeError(f"chunk count must be an integer >= 1, got {self.r}")
        _checked_elem_bytes(self.elem_bytes)
        AttnParams(scale=self.scale)  # validates the scale

    def chunk_width(self, C: int) -> int:
        """Widest chunk, ceil(C/r); the one rule is that r chunks need r <= C features."""
        if self.r > C:
            raise ShapeError(f"chunk count {self.r} exceeds feature count {C}")
        return -(-C // self.r)

    def chunk_spans(self, C: int) -> list[tuple[int, int]]:
        """Half-open feature spans of the r chunks, balanced: widths differ by at most 1."""
        self.chunk_width(C)  # refuses r > C
        return [(i * C // self.r, (i + 1) * C // self.r) for i in range(self.r)]


@dataclass(frozen=True)
class FlashContext:
    """Global Q/K/V references retained by the forward pass for recomputation."""

    q: DenseTensor
    k: DenseTensor
    v: DenseTensor
    cfg: TileConfig


def peak_sram_forward(L: int, C: int, cfg: TileConfig) -> int:
    """Closed-form forward scratchpad peak: (L^2 + 2*L*cw) elements in bytes."""
    return _peak_sram(L, C, cfg, score_buffers=1)


def peak_sram_backward(L: int, C: int, cfg: TileConfig) -> int:
    """Closed-form backward scratchpad peak: (2*L^2 + 2*L*cw) elements in bytes."""
    return _peak_sram(L, C, cfg, score_buffers=2)


def _peak_sram(L: int, C: int, cfg: TileConfig, score_buffers: int) -> int:
    # Both passes hold L x L score buffers (S; or P and dP) next to two chunks.
    _validated((L, C))
    return (score_buffers * L * L + 2 * L * cfg.chunk_width(C)) * cfg.elem_bytes


def _emit(arena, operand, dest, a, b, elem_bytes) -> None:
    """Compute the tile ``a @ b`` on chip, store it to ``dest``, then free it."""
    tile = arena.allocate(operand, dest.shape, elem_bytes)
    np.matmul(a, b, out=tile)
    arena.store(operand, dest, tile)
    arena.free(tile)


def _weights(arena, qg, kg, spans, cfg) -> np.ndarray:
    """Weights on chip: sum_i Q_i K_i^T, scaled, softmaxed in place (non-finite scores raise)."""
    weights = arena.allocate("P", (qg.shape[0], kg.shape[0]), cfg.elem_bytes)
    for lo, hi in spans:
        qi = arena.load("Q", qg[:, lo:hi], cfg.elem_bytes)
        ki = arena.load("K", kg[:, lo:hi], cfg.elem_bytes)
        weights += qi @ ki.T
        arena.free(qi)
        arena.free(ki)
    weights *= cfg.scale
    _softmax_rows(weights, weights)
    return weights


def _softmax_grad_inplace(p: np.ndarray, dp: np.ndarray) -> None:
    # dp becomes dS = P * (dP - rowdot). The L row dots are per-row scalars,
    # which the arena does not model; vecdot gives each the same bits as a
    # per-row np.dot (einsum and (p * dp).sum do not).
    dp -= np.vecdot(p, dp)[:, None]
    dp *= p


def flash_forward(
    q: DenseTensor,
    k: DenseTensor,
    v: DenseTensor,
    cfg: TileConfig,
    arena: ScratchpadArena,
) -> tuple[DenseTensor, FlashContext, TrafficReport]:
    """Tiled attention forward over the simulated memory hierarchy.

    Returns the output, a context holding the Q/K/V references needed to
    recompute the weights in backward, and the instrumented traffic report.
    The call is one :meth:`ScratchpadArena.kernel_call` scope: it is refused
    up front when ``peak_sram_forward`` exceeds the arena's free bytes, its
    report's peak is its own and equals that formula, and any exception
    leaves the arena exactly as it was on entry.

    Only the scores are checked for finiteness: a NaN or infinity in Q or
    K, or an overflowing scale, raises :class:`NumericsError`, as in the
    untiled reference. A NaN in V reaches O in the same positions as in
    ``naive_forward``.
    """
    L, C = _check_qkv_2d(q, k, v)
    spans = cfg.chunk_spans(C)
    eb = cfg.elem_bytes
    vg = v.array
    og = np.empty((L, C), dtype=np.float64)

    with arena.kernel_call("forward", peak_sram_forward(L, C, cfg)) as report:
        weights = _weights(arena, q.array, k.array, spans, cfg)
        for lo, hi in spans:
            vi = arena.load("V", vg[:, lo:hi], eb)
            _emit(arena, "O", og[:, lo:hi], weights, vi, eb)
            arena.free(vi)
        arena.free(weights)

    return DenseTensor._adopt(og), FlashContext(q=q, k=k, v=v, cfg=cfg), report()


def flash_backward(
    ctx: FlashContext,
    dO: DenseTensor,
    arena: ScratchpadArena,
) -> tuple[DenseTensor, DenseTensor, DenseTensor, TrafficReport]:
    """Tiled attention backward: recompute weights on chip, stream gradients out.

    Q and K cross the global-memory boundary twice (recompute phase and
    gradient phase); V, dO, dQ, dK, dV once each. Scope, refusal and peak
    are as in :func:`flash_forward`, with ``peak_sram_backward``. Only the
    recomputed scores are checked for finiteness: a NaN in V or dO reaches
    dQ, dK and dV in the same positions as in ``naive_backward``.
    """
    if not isinstance(ctx, FlashContext) or not all(
        isinstance(t, DenseTensor) for t in (ctx.q, ctx.k, ctx.v)
    ):
        raise FlashwinError("backward requires the context returned by flash_forward")
    L, C = _check_qkv_2d(ctx.q, ctx.k, ctx.v)
    if dO.shape != (L, C):
        raise ShapeError(f"dO shape {dO.shape} does not match forward shape {(L, C)}")
    cfg = ctx.cfg
    spans = cfg.chunk_spans(C)
    eb = cfg.elem_bytes
    qg, kg, vg, dog = ctx.q.array, ctx.k.array, ctx.v.array, dO.array
    dqg, dkg, dvg = (np.empty((L, C), dtype=np.float64) for _ in range(3))

    with arena.kernel_call("backward", peak_sram_backward(L, C, cfg)) as report:
        # Phase 1: rebuild the attention weights from Q, K.
        weights = _weights(arena, qg, kg, spans, cfg)
        dweights = arena.allocate("dP", (L, L), eb)

        # Phase 2: stream dV out while accumulating dP. The dP update runs
        # first so the freed V_i slot can host the dV_i tile.
        for lo, hi in spans:
            doi = arena.load("dO", dog[:, lo:hi], eb)
            vi = arena.load("V", vg[:, lo:hi], eb)
            dweights += doi @ vi.T
            arena.free(vi)
            _emit(arena, "dV", dvg[:, lo:hi], weights.T, doi, eb)
            arena.free(doi)

        # Phase 3: dP -> dS in place; the weights buffer is dead afterwards.
        _softmax_grad_inplace(weights, dweights)
        dweights *= cfg.scale
        arena.free(weights)

        for lo, hi in spans:
            ki = arena.load("K", kg[:, lo:hi], eb)
            _emit(arena, "dQ", dqg[:, lo:hi], dweights, ki, eb)
            arena.free(ki)
            qi = arena.load("Q", qg[:, lo:hi], eb)
            _emit(arena, "dK", dkg[:, lo:hi], dweights.T, qi, eb)
            arena.free(qi)
        arena.free(dweights)

    dq, dk, dv = (DenseTensor._adopt(g) for g in (dqg, dkg, dvg))
    return dq, dk, dv, report()


def batched_flash_forward(
    q: DenseTensor,
    k: DenseTensor,
    v: DenseTensor,
    cfg: TileConfig,
    arenas: Sequence[ScratchpadArena],
) -> tuple[DenseTensor, list[list[FlashContext]], TrafficReport]:
    """Run the forward kernel independently over every (batch, head) slice.

    Slices run one after another in (batch, head) order and are assigned
    round-robin to ``arenas``, so each arena models one window's scratchpad
    at a time. Counts are summed over slices and the peak is the largest
    per-arena peak. Each slice's context holds read-only views of ``q``/
    ``k``/``v``, not copies. Failures are re-raised annotated with the
    (batch, head) of the offending slice. Nothing in the package calls it:
    the harness runs and judges each slice's ``flash_forward`` call alone;
    it is kept for the benchmark's workloads, which call it by name.
    """
    if q.ndim != 4 or not (q.shape == k.shape == v.shape):
        raise ShapeError(
            f"batched Q/K/V must share a 4-D shape, got {q.shape}, {k.shape}, {v.shape}"
        )
    if not arenas:
        raise InvalidRangeError("at least one arena is required")
    B, h, L, C = q.shape
    qa, ka, va = q.array, k.array, v.array
    out = np.empty((B, h, L, C), dtype=np.float64)
    contexts: list[list[FlashContext]] = [[] for _ in range(B)]
    reports: list[TrafficReport] = []
    for idx in range(B * h):
        b, head = divmod(idx, h)
        try:
            o, sl_ctx, rep = flash_forward(
                DenseTensor._adopt(qa[b, head]),
                DenseTensor._adopt(ka[b, head]),
                DenseTensor._adopt(va[b, head]),
                cfg,
                arenas[idx % len(arenas)],
            )
        except FlashwinError as exc:
            raise type(exc)(f"slice (b={b}, head={head}): {exc}") from exc
        out[b, head] = o.array
        contexts[b].append(sl_ctx)
        reports.append(rep)

    return DenseTensor._adopt(out), contexts, merge_reports(reports)


def _check_qkv_2d(q: DenseTensor, k: DenseTensor, v: DenseTensor) -> tuple[int, int]:
    if q.ndim != 2:
        raise ShapeError(f"Q/K/V must be 2-D, got {q.shape}")
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
    return q.shape
