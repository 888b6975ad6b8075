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

One driver, ``_slice_calls``, runs every (L, C) window or (..., L, C) stack, one
window per kernel call on one arena: the harness's tiled path for all four
subcommands, and ``batched_flash_forward`` for the benchmark's workloads. One
preamble, ``_window``, checks all a call needs once, r <= C by ``TileConfig._spans``
on Q's checked C; slices and outputs of checked tensors are wrapped unchecked.

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

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import FlashwinError, InvalidRangeError, ShapeError, _integer, _real
from .memory import ScratchpadArena, TrafficReport, _checked_elem_bytes, merge_reports
from .reference import _softmax_rows
from .tensor import DenseTensor, _axes, _shaped, _tensors, _validated


@dataclass(frozen=True)
class TileConfig:
    """Feature tiling: r chunks (any integer 1..C tiles C features), scale, accounting bytes."""

    r: int
    scale: float = 1.0
    elem_bytes: int = 4

    def __post_init__(self):
        object.__setattr__(self, "r", _integer("chunk count", self.r, minimum=1))
        object.__setattr__(self, "scale", _real("scale", self.scale, positive=True))
        object.__setattr__(self, "elem_bytes", _checked_elem_bytes(self.elem_bytes))

    def chunk_spans(self, C: int) -> list[tuple[int, int]]:
        """The r chunks' half-open spans, widths within 1, once C is an extent and r <= C."""
        return self._spans(*_validated((C,)))

    def _spans(self, C: int) -> list[tuple[int, int]]:
        if self.r > C:  # chunk_spans for a C that is already an extent: r <= C is left
            raise ShapeError(f"chunk count {self.r} exceeds feature count {C}")
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
    return _peak_sram("peak_sram_forward", L, C, cfg, score_buffers=1)


def peak_sram_backward(L: int, C: int, cfg: TileConfig) -> int:
    """Closed-form backward scratchpad peak: (2*L^2 + 2*L*cw) elements in bytes."""
    return _peak_sram("peak_sram_backward", L, C, cfg, score_buffers=2)


def _peak_sram(fn: str, L: int, C: int, cfg: TileConfig, score_buffers: int) -> int:
    _tensors(fn, TileConfig, cfg=cfg)
    L, C = _validated((L, C))
    return _peak(L, cfg._spans(C), cfg, score_buffers)


def _peak(L: int, spans: list, cfg: TileConfig, score_buffers: int) -> int:
    # Both passes hold L x L score buffers (S; or P and dP) next to two chunks as wide as the last.
    return (score_buffers * L * L + 2 * L * (spans[-1][1] - spans[-1][0])) * cfg.elem_bytes


def _window(fn, cfg, arena, score_buffers, q, **operands) -> tuple[int, int, list, int]:
    """A kernel call's one preamble, each rule run once: (L, C, the chunk spans, the bytes the
    call needs) once the classes, Q's 2 axes, the operands' shapes and r <= C on Q's C hold."""
    _tensors(fn, q=q, **operands)
    _tensors(fn, TileConfig, cfg=cfg)
    _tensors(fn, ScratchpadArena, arena=arena)
    _axes(fn, (2,), q=q)
    L, C = _shaped(fn, q.shape, **operands)
    spans = cfg._spans(C)
    return L, C, spans, _peak(L, spans, cfg, score_buffers)


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
    up front when ``peak_sram_forward`` exceeds the arena's free bytes, so
    a refused call allocates no host memory, not even its output; its
    report's peak is its own and equals that formula, and any exception
    leaves the arena exactly as it was on entry.

    Only the scores are checked for finiteness: a NaN or infinity in Q or
    K, or an overflowing scale, raises :class:`NumericsError`, as in the
    untiled reference. A NaN in V reaches O in the same positions as in
    ``naive_forward``.
    """
    L, C, spans, need = _window("flash_forward", cfg, arena, 1, q, k=k, v=v)
    eb = cfg.elem_bytes
    vg = v.array

    with arena.kernel_call("forward", need) as report:
        og = np.empty((L, C), dtype=np.float64)
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
    _tensors("flash_backward", FlashContext, ctx=ctx)
    cfg = ctx.cfg
    L, C, spans, need = _window("flash_backward", cfg, arena, 2, ctx.q, k=ctx.k, v=ctx.v, dO=dO)
    eb = cfg.elem_bytes
    qg, kg, vg, dog = ctx.q.array, ctx.k.array, ctx.v.array, dO.array

    with arena.kernel_call("backward", need) as report:
        dqg, dkg, dvg = (np.empty((L, C), dtype=np.float64) for _ in range(3))
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

    return (*map(DenseTensor._adopt, (dqg, dkg, dvg)), report())


def batched_flash_forward(
    q: DenseTensor,
    k: DenseTensor,
    v: DenseTensor,
    cfg: TileConfig,
    arenas: Sequence[ScratchpadArena],
) -> tuple[DenseTensor, list[list[FlashContext]], TrafficReport]:
    """Run the forward kernel over every (batch, head) slice on the one arena in ``arenas``.

    Collects the forward calls of ``_slice_calls``, as the harness does. Counts are summed
    over slices and the peak is the largest per-call peak. Each slice's context holds
    read-only views of ``q``/``k``/``v``, not copies. Failures are re-raised annotated with
    the (batch, head) of the offending slice. The benchmark's workloads call it by name.
    """
    _tensors("batched_flash_forward", q=q, k=k, v=v)
    _tensors("batched_flash_forward", TileConfig, cfg=cfg)
    _tensors("batched_flash_forward", Sequence, arenas=arenas)
    _axes("batched_flash_forward", (4,), q=q)
    B, h, L, C = _shaped("batched_flash_forward", q.shape, k=k, v=v)
    if len(arenas) != 1:
        raise InvalidRangeError(f"exactly one arena is required, got {len(arenas)}")
    [arena] = arenas
    _tensors("batched_flash_forward", ScratchpadArena, arenas=arena)
    out = None  # made once the first slice's call has fit, so a refused stack allocates none
    contexts: list[list[FlashContext]] = [[] for _ in range(B)]
    reports: list[TrafficReport] = []
    try:
        for _, [o], ctx, rep, _ in _slice_calls(q, k, v, None, cfg, arena):
            if out is None:
                out = np.empty((B * h, L, C), dtype=np.float64)
            out[len(reports)] = o.array  # no slice's output outlives its call
            contexts[len(reports) // h].append(ctx)
            reports.append(rep)
    except FlashwinError as exc:
        b, head = divmod(len(reports), h)
        raise type(exc)(f"slice (b={b}, head={head}): {exc}") from exc

    return DenseTensor._adopt(out.reshape(B, h, L, C)), contexts, merge_reports(reports)


def _slice_calls(q, k, v, do, cfg, arena) -> Iterator[tuple]:
    """Per (batch, head) slice, in order on ``arena``, its forward call, then given ``do`` its
    backward call. Yields per call its pass, outputs ([O] or [dQ, dK, dV]), context, report
    and the bytes it left held on the arena; a caller keeps what it needs."""
    for sq, sk, sv, sl_do in zip(*map(_slices, (q, k, v, do))):
        before = arena.live_bytes  # a leak is charged to the call that made it
        o, ctx, rep = flash_forward(sq, sk, sv, cfg, arena)
        yield "forward", [o], ctx, rep, arena.live_bytes - before
        if sl_do is not None:
            before = arena.live_bytes
            *grads, rep = flash_backward(ctx, sl_do, arena)
            yield "backward", grads, ctx, rep, arena.live_bytes - before


def _slices(t: DenseTensor | None) -> Iterable[DenseTensor | None]:
    """The (L, C) slices of a (..., L, C) tensor, in stack order; no copies. An (L, C)
    tensor is one slice. No tensor (None) has None for every slice."""
    if t is None:
        return repeat(None)
    return [DenseTensor._adopt(a) for a in t.array.reshape(-1, *t.shape[-2:])]
