"""Feature-tiled window attention executed against the two-level memory model.

Q, K, V are split into r chunks along the feature dimension. The forward
kernel accumulates S = sum_i Q_i K_i^T in a scratchpad buffer, applies the
softmax in place, then streams the output out chunk by chunk, so each of
Q, K, V, O crosses the global-memory boundary exactly once. The backward
kernel recomputes the attention weights on chip from Q and K (they are
deliberately reloaded, never cached across phases), streams dV and the dP
accumulation in a second pass, converts dP to dS in place, and streams dQ
and dK in a third pass.

Scratchpad schedules are arranged so that the instrumented peak equals the
closed forms (L^2 + 2*L*cw forward, 2*L^2 + 2*L*cw backward, cw = ceil(C/r)
features per chunk):

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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ContextError, FlashwinError, InvalidRangeError, ShapeError
from .memory import OnChipBuffer, ScratchpadArena, TrafficReport, merge_reports
from .tensor import DenseTensor


@dataclass(frozen=True)
class TileConfig:
    """Feature-tiling parameters: chunk count r, softmax scale, accounting bytes."""

    r: int
    scale: float = 1.0
    elem_bytes: int = 4

    def __post_init__(self):
        if self.r < 1:
            raise InvalidRangeError(f"chunk count must be >= 1, got {self.r}")
        if self.elem_bytes not in (4, 8):
            raise InvalidRangeError(f"elem_bytes must be 4 or 8, got {self.elem_bytes}")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise InvalidRangeError(f"scale must be finite and > 0, got {self.scale}")

    def chunk_width(self, C: int) -> int:
        """Widest chunk, ceil(C/r); validates that r chunks of C features exist."""
        if self.r > C:
            raise ShapeError(f"chunk count {self.r} exceeds feature count {C}")
        cw = -(-C // self.r)
        if cw * (self.r - 1) >= C:
            raise ShapeError(
                f"chunk count {self.r} leaves an empty chunk for {C} features"
            )
        return cw

    def chunk_spans(self, C: int) -> list[tuple[int, int]]:
        """Half-open feature spans of the r chunks; all but the last are full width."""
        cw = self.chunk_width(C)
        return [(i * cw, min((i + 1) * cw, C)) for i in range(self.r)]


@dataclass(frozen=True)
class FlashContext:
    """Global Q/K/V references retained by the forward pass for recomputation."""

    q: DenseTensor
    k: DenseTensor
    v: DenseTensor
    cfg: TileConfig


def peak_sram_forward(L: int, C: int, cfg: TileConfig) -> int:
    """Closed-form forward scratchpad peak: (L^2 + 2*L*cw) elements in bytes."""
    if L < 1 or C < 1:
        raise ShapeError(f"L and C must be >= 1, got L={L}, C={C}")
    return (L * L + 2 * L * cfg.chunk_width(C)) * cfg.elem_bytes


def peak_sram_backward(L: int, C: int, cfg: TileConfig) -> int:
    """Closed-form backward scratchpad peak: (2*L^2 + 2*L*cw) elements in bytes."""
    if L < 1 or C < 1:
        raise ShapeError(f"L and C must be >= 1, got L={L}, C={C}")
    return (2 * L * L + 2 * L * cfg.chunk_width(C)) * cfg.elem_bytes


def _check_budget(kind: str, need: int, arena: ScratchpadArena) -> None:
    # Checked against what is free now, so a busy arena is refused before
    # the kernel allocates anything rather than overflowing partway through.
    available = arena.capacity_bytes - arena.live_bytes
    if need > available:
        raise CapacityError(
            f"{kind} pass needs {need} bytes of scratchpad, "
            f"arena has {available} of {arena.capacity_bytes} available"
        )


def _load(
    arena: ScratchpadArena,
    loads: dict[str, int],
    operand: str,
    view: np.ndarray,
    elem_bytes: int,
    tag: str,
) -> OnChipBuffer:
    """Copy a global-memory slice into a fresh on-chip buffer, counting elements.

    ``loads`` is pre-seeded with every operand the kernel reads.
    """
    buf = arena.allocate(tag, view.shape, elem_bytes)
    buf.array[...] = view
    loads[operand] += view.size
    return buf


def _store(stores: dict[str, int], operand: str, dest: np.ndarray, src: np.ndarray) -> None:
    """Copy an on-chip tile out to a global-memory slice, counting elements.

    ``stores`` is pre-seeded with every operand the kernel writes.
    """
    dest[...] = src
    stores[operand] += src.size


def _softmax_rows_inplace(s: np.ndarray) -> None:
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)


def _softmax_grad_inplace(p: np.ndarray, dp: np.ndarray) -> None:
    # dp becomes dS = P * (dP - rowdot); scalar accumulator per row, no extra buffer
    for i in range(p.shape[0]):
        rho = float(np.dot(p[i], dp[i]))
        dp[i] -= rho
        dp[i] *= p[i]


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
    The arena's peak equals ``peak_sram_forward`` when it starts idle.
    """
    L, C = _check_qkv_2d(q, k, v)
    spans = cfg.chunk_spans(C)
    _check_budget("forward", peak_sram_forward(L, C, cfg), arena)

    # Seeded in first-touch order, which is the order reports list them in.
    loads = {"Q": 0, "K": 0, "V": 0}
    stores = {"O": 0}
    qg, kg, vg = q.array, k.array, v.array
    og = np.empty((L, C), dtype=np.float64)

    scores = arena.allocate("S", (L, L), cfg.elem_bytes)
    for lo, hi in spans:
        qi = _load(arena, loads, "Q", qg[:, lo:hi], cfg.elem_bytes, "Q_i")
        ki = _load(arena, loads, "K", kg[:, lo:hi], cfg.elem_bytes, "K_i")
        scores.array += qi.array @ ki.array.T
        arena.free(qi)
        arena.free(ki)

    scores.array *= cfg.scale
    _softmax_rows_inplace(scores.array)  # buffer now holds P

    for lo, hi in spans:
        vi = _load(arena, loads, "V", vg[:, lo:hi], cfg.elem_bytes, "V_i")
        oi = arena.allocate("O_i", (L, hi - lo), cfg.elem_bytes)
        np.matmul(scores.array, vi.array, out=oi.array)
        _store(stores, "O", og[:, lo:hi], oi.array)
        arena.free(vi)
        arena.free(oi)
    arena.free(scores)

    report = TrafficReport(loads=loads, stores=stores, peak_sram_bytes=arena.peak_bytes)
    return DenseTensor._adopt(og), FlashContext(q=q, k=k, v=v, cfg=cfg), report


def flash_backward(
    ctx: FlashContext,
    dO: DenseTensor,
    arena: ScratchpadArena,
) -> tuple[DenseTensor, DenseTensor, DenseTensor, TrafficReport]:
    """Tiled attention backward: recompute weights on chip, stream gradients out.

    Q and K cross the global-memory boundary twice (recompute phase and
    gradient phase); V, dO, dQ, dK, dV once each.
    """
    if not isinstance(ctx, FlashContext) or not all(
        isinstance(t, DenseTensor) for t in (ctx.q, ctx.k, ctx.v)
    ):
        raise ContextError("backward requires the context returned by flash_forward")
    L, C = _check_qkv_2d(ctx.q, ctx.k, ctx.v)
    if dO.shape != (L, C):
        raise ShapeError(f"dO shape {dO.shape} does not match forward shape {(L, C)}")
    cfg = ctx.cfg
    spans = cfg.chunk_spans(C)
    _check_budget("backward", peak_sram_backward(L, C, cfg), arena)

    loads = {"Q": 0, "K": 0, "dO": 0, "V": 0}
    stores = {"dV": 0, "dQ": 0, "dK": 0}
    qg, kg, vg, dog = ctx.q.array, ctx.k.array, ctx.v.array, dO.array
    dqg = np.empty((L, C), dtype=np.float64)
    dkg = np.empty((L, C), dtype=np.float64)
    dvg = np.empty((L, C), dtype=np.float64)

    # Phase 1: rebuild the attention weights from Q, K.
    weights = arena.allocate("P", (L, L), cfg.elem_bytes)
    dweights = arena.allocate("dP", (L, L), cfg.elem_bytes)
    for lo, hi in spans:
        qi = _load(arena, loads, "Q", qg[:, lo:hi], cfg.elem_bytes, "Q_i")
        ki = _load(arena, loads, "K", kg[:, lo:hi], cfg.elem_bytes, "K_i")
        weights.array += qi.array @ ki.array.T
        arena.free(qi)
        arena.free(ki)
    weights.array *= cfg.scale
    _softmax_rows_inplace(weights.array)

    # Phase 2: stream dV out while accumulating dP. The dP update runs
    # first so the freed V_i slot can host the dV_i tile.
    for lo, hi in spans:
        doi = _load(arena, loads, "dO", dog[:, lo:hi], cfg.elem_bytes, "dO_i")
        vi = _load(arena, loads, "V", vg[:, lo:hi], cfg.elem_bytes, "V_i")
        dweights.array += doi.array @ vi.array.T
        arena.free(vi)
        dvi = arena.allocate("dV_i", (L, hi - lo), cfg.elem_bytes)
        np.matmul(weights.array.T, doi.array, out=dvi.array)
        _store(stores, "dV", dvg[:, lo:hi], dvi.array)
        arena.free(doi)
        arena.free(dvi)

    # Phase 3: dP -> dS in place; the weights buffer is dead afterwards.
    _softmax_grad_inplace(weights.array, dweights.array)
    dweights.array *= cfg.scale
    arena.free(weights)

    for lo, hi in spans:
        ki = _load(arena, loads, "K", kg[:, lo:hi], cfg.elem_bytes, "K_i")
        dqi = arena.allocate("dQ_i", (L, hi - lo), cfg.elem_bytes)
        np.matmul(dweights.array, ki.array, out=dqi.array)
        _store(stores, "dQ", dqg[:, lo:hi], dqi.array)
        arena.free(dqi)
        arena.free(ki)
        qi = _load(arena, loads, "Q", qg[:, lo:hi], cfg.elem_bytes, "Q_i")
        dki = arena.allocate("dK_i", (L, hi - lo), cfg.elem_bytes)
        np.matmul(dweights.array.T, qi.array, out=dki.array)
        _store(stores, "dK", dkg[:, lo:hi], dki.array)
        arena.free(dki)
        arena.free(qi)
    arena.free(dweights)

    report = TrafficReport(loads=loads, stores=stores, peak_sram_bytes=arena.peak_bytes)
    return (
        DenseTensor((L, C), dqg),
        DenseTensor((L, C), dkg),
        DenseTensor((L, C), dvg),
        report,
    )


def batched_flash_forward(
    q: DenseTensor,
    k: DenseTensor,
    v: DenseTensor,
    cfg: TileConfig,
    arenas: Sequence[ScratchpadArena],
) -> tuple[DenseTensor, list[list[FlashContext]], TrafficReport]:
    """Run the forward kernel independently over every (batch, head) slice.

    Slices run one after another in (batch, head) order and are assigned
    round-robin to ``arenas``, so each arena models one window's
    scratchpad at a time. Counts are summed over slices and the peak is
    the largest per-arena peak. Each slice's context holds read-only views
    of ``q``/``k``/``v``, not copies. Failures are re-raised annotated
    with the (batch, head) of the offending slice.
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
