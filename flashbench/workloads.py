"""The benchmark's workloads and the correctness gate every operation passes.

Inputs come from the seed through the package's SplitMix64 generator
(``Rng`` + ``fill_uniform``), as ``flashwin bench`` makes its inputs; the
package only ever sees the generated tensors. Every workload is a closed
loop: one caller, and the next operation starts when the last one ends.

``wide_fwd`` and ``swin_train`` run window attention over one image per
operation: ``window_partition`` -> ``batched_flash_forward`` (one arena
per batch) -> ``flash_backward`` per (window, head) slice for training ->
``window_reverse``. The same inputs then go through the untiled reference,
``naive_forward``/``naive_backward`` per slice, with the same partition
and reverse; that is both the paper's baseline and the oracle of the gate.
``verify`` runs one pass of the package's own check suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import flashwin as fw
from flashwin import harness

# Distinct input sets per run; operations cycle through them.
POOL = 4


@dataclass(frozen=True)
class Sample:
    """Wall times of one gated operation and the slices it moved."""

    tiled_ns: int  # the operation itself: batch or check pass
    naive_ns: int  # the untiled path on the same inputs
    check_ns: int  # what it takes to check the operation's output
    slices: int  # (window, head) slices through the tiled path
    naive_slices: int  # (window, head) slices through the untiled reference


@dataclass
class Outcome:
    """Result of the gate on one operation."""

    attempted: int
    failed: int
    problems: list[str]


@dataclass
class TiledResult:
    outputs: tuple
    forward: fw.TrafficReport
    backward: list
    arena: fw.ScratchpadArena


class WindowAttention:
    """Multi-head window attention over square images, forward or forward+backward.

    ``wide_fwd``: one 32x32x1024 image, 8x8 windows, 4 heads -> 16 windows
    x 4 heads of L=64, C=256, r=16; Q = K = V = the image. ``swin_train``:
    Q/K/V/dO images of Swin-T stage 1, 56x56x96, 7x7 windows, 3 heads -> 64
    windows x 3 heads of L=49, C=32, r=2. Both use r='auto' and Swin's
    softmax scale head_dim**-0.5.
    """

    def __init__(self, side: int, channels: int, k: int, heads: int, backward: bool):
        self.win = fw.WindowConfig(H=side, W=side, C=channels, k=k)
        self.heads = heads
        self.backward = backward
        self.L = self.win.seq_len
        self.C = channels // heads
        self.slices = self.win.num_windows * heads
        self.tile = fw.TileConfig(r=harness.resolve_r("auto", self.C), scale=self.C**-0.5)
        self.params = fw.AttnParams(scale=self.tile.scale)
        self.output_names = ("O", "dQ", "dK", "dV") if backward else ("O",)

    def make_inputs(self, seed: int) -> list[tuple]:
        rng = fw.Rng(seed)
        shape = (self.win.H, self.win.W, self.win.C)
        n_images = 4 if self.backward else 1
        return [
            tuple(fw.fill_uniform(rng, shape, -1.0, 1.0) for _ in range(n_images))
            for _ in range(POOL)
        ]

    def _to_slices(self, image: fw.DenseTensor) -> fw.DenseTensor:
        w = fw.window_partition(image, self.win).array
        n = w.shape[0]
        heads = w.reshape(n, self.L, self.heads, self.C).transpose(0, 2, 1, 3)
        return fw.DenseTensor(heads.shape, heads)

    def _to_image(self, slices: np.ndarray) -> fw.DenseTensor:
        n = slices.shape[0]
        w = slices.transpose(0, 2, 1, 3).reshape(n, self.L, self.heads * self.C)
        return fw.window_reverse(fw.DenseTensor(w.shape, w), self.win)

    def _operands(self, images: tuple) -> tuple:
        slices = [self._to_slices(img) for img in images]
        if self.backward:
            return tuple(slices)
        return slices[0], slices[0], slices[0], None

    def tiled(self, images: tuple, new_arena) -> TiledResult:
        q, k, v, do = self._operands(images)
        arena = new_arena()
        out, contexts, forward = fw.batched_flash_forward(q, k, v, self.tile, [arena])
        outputs = [out.array]
        backward = []
        if self.backward:
            grads = np.empty((3,) + q.shape)
            for b in range(q.shape[0]):
                for h in range(self.heads):
                    sl_do = fw.DenseTensor((self.L, self.C), do.array[b, h])
                    dq, dk, dv, rep = fw.flash_backward(contexts[b][h], sl_do, arena)
                    grads[0, b, h], grads[1, b, h], grads[2, b, h] = dq.array, dk.array, dv.array
                    backward.append(rep)
            outputs.extend(grads)
        images_out = tuple(self._to_image(o) for o in outputs)
        return TiledResult(images_out, forward, backward, arena)

    def naive(self, images: tuple) -> tuple:
        q, k, v, do = self._operands(images)
        outputs = np.empty((len(self.output_names),) + q.shape)
        shape = (self.L, self.C)
        for b in range(q.shape[0]):
            for h in range(self.heads):
                sq, sk, sv = (fw.DenseTensor(shape, t.array[b, h]) for t in (q, k, v))
                o, cache = fw.naive_forward(sq, sk, sv, self.params)
                outputs[0, b, h] = o.array
                if self.backward:
                    sdo = fw.DenseTensor(shape, do.array[b, h])
                    grads = fw.naive_backward(sq, sk, sv, cache, sdo, self.params)
                    for i, g in enumerate(grads, start=1):
                        outputs[i, b, h] = g.array
        return tuple(self._to_image(o) for o in outputs)

    def check(self, result: TiledResult, reference: tuple) -> Outcome:
        """Compare with the untiled outputs, the closed-form traffic and peaks, and arena leaks."""
        problems = []
        for name, got, want in zip(self.output_names, result.outputs, reference):
            err = fw.max_abs_diff(got, want)
            if not err <= harness.ORACLE_TOL:
                problems.append(f"{name} differs from the untiled reference by {err:.3e}")
        L, C, n = self.L, self.C, self.slices
        loads, stores = harness.expected_forward_traffic(L, C)
        if result.forward.loads != _scaled(loads, n) or result.forward.stores != _scaled(
            stores, n
        ):
            problems.append(
                f"forward traffic {result.forward.loads} {result.forward.stores} "
                f"is not {n} x the closed form {loads} {stores}"
            )
        peak = fw.peak_sram_forward(L, C, self.tile)
        if result.forward.peak_sram_bytes != peak:
            problems.append(f"forward peak {result.forward.peak_sram_bytes} B, closed form {peak} B")
        if self.backward:
            loads, stores = harness.expected_backward_traffic(L, C)
            peak = fw.peak_sram_backward(L, C, self.tile)
            bad = [
                rep
                for rep in result.backward
                if rep.loads != loads or rep.stores != stores or rep.peak_sram_bytes != peak
            ]
            if bad or len(result.backward) != n:
                problems.append(
                    f"{len(bad)} of {len(result.backward)} backward reports differ from the "
                    f"closed-form traffic {loads} {stores} or peak {peak} B ({n} expected)"
                )
        if result.arena.live_bytes != 0:
            problems.append(f"arena holds {result.arena.live_bytes} live bytes after the batch")
        return Outcome(1, int(bool(problems)), problems)

    def sample(self, tiled_ns: int, naive_ns: int, compare_ns: int, result) -> Sample:
        return Sample(tiled_ns, naive_ns, naive_ns + compare_ns, self.slices, self.slices)


class CheckSuite:
    """One pass of ``run_check_suite`` on a grid fixed here, seeded by the benchmark seed.

    L=1024 does not fit the default scratchpad, so its cases are capacity
    refusals and exercise the failure path. The pass runs the untiled
    reference on every slice it checks, so both slice rates count the
    checked slices per second of pass time.
    """

    Ls = (1, 2, 8, 49, 64, 1024)
    Cs = (16, 32, 64)
    r_values = (1, 2, 4, "auto")

    def make_inputs(self, seed: int) -> list[int]:
        return [seed]

    def tiled(self, seed: int, new_arena) -> list:
        return harness.run_check_suite(seed, self.Ls, self.Cs, self.r_values)

    def naive(self, seed: int) -> None:
        return None

    def check(self, results: list, reference: None) -> Outcome:
        problems = [f"check case {r.case_id} failed (max_err {r.max_err:.3e})" for r in results if not r.ok]
        return Outcome(len(results), len(problems), problems)

    def sample(self, tiled_ns: int, naive_ns: int, compare_ns: int, results) -> Sample:
        kernel = sum(r.case_id.startswith(("fwd_", "bwd_")) for r in results)
        refused = sum(r.case_id.startswith("capacity_fwd_") for r in results)
        return Sample(tiled_ns, tiled_ns, tiled_ns + compare_ns, kernel, kernel + refused)


def _scaled(counts: dict[str, int], n: int) -> dict[str, int]:
    return {name: n * c for name, c in counts.items()}


WORKLOADS = {
    "wide_fwd": lambda: WindowAttention(side=32, channels=1024, k=8, heads=4, backward=False),
    "swin_train": lambda: WindowAttention(side=56, channels=96, k=7, heads=3, backward=True),
    "verify": CheckSuite,
}
