"""The kernels' contract on every small shape, by value: the small-scope hypothesis.

For every (L, C) with L, C <= a bound, every chunk count r in 1..C and both element sizes,
one window runs forward and backward through ``flash._slice_calls`` on an arena of exactly
the backward peak. Each call's loads, stores and peak must equal the closed forms written
out here (not those of the harness's judge, so a broken judge cannot pass this), and the
call must leave nothing held. On an arena one byte smaller the forward call runs and the
backward call is refused up front with ``CapacityError``, for the closed-form bytes it
needs, leaving the arena empty.

Tier-1 sweeps to 12. The wider sweep runs as its own step::

    PYTHONPATH=src python tests/test_contract_sweep.py 24
"""

import sys
import time

from flashwin import CapacityError, Rng, ScratchpadArena, TileConfig, fill_uniform
from flashwin.flash import _slice_calls


def sweep_contract(bound: int) -> int:
    """Check every (L, C, r, elem_bytes) with L, C <= ``bound``; returns how many ran.

    Raises AssertionError naming the first point that breaks the contract.
    """
    rng = Rng(16)
    points = 0
    for L in range(1, bound + 1):
        for C in range(1, bound + 1):
            q, k, v, do = (fill_uniform(rng, (1, 1, L, C), -1.0, 1.0) for _ in range(4))
            n = L * C
            traffic = {
                "forward": ({"Q": n, "K": n, "V": n}, {"O": n}),
                "backward": (
                    {"Q": 2 * n, "K": 2 * n, "V": n, "dO": n},
                    {"dQ": n, "dK": n, "dV": n},
                ),
            }
            for r in range(1, C + 1):
                cw = -(-C // r)  # the widest of r balanced chunks
                for elem_bytes in (4, 8):
                    where = f"L={L} C={C} r={r} elem_bytes={elem_bytes}"
                    cfg = TileConfig(r, elem_bytes=elem_bytes)
                    peak = {
                        "forward": (L * L + 2 * L * cw) * elem_bytes,
                        "backward": (2 * L * L + 2 * L * cw) * elem_bytes,
                    }
                    want = [(p, *traffic[p], peak[p], 0) for p in ("forward", "backward")]

                    arena = ScratchpadArena(peak["backward"])
                    calls = [
                        (pass_, rep.loads, rep.stores, rep.peak_sram_bytes, held)
                        for pass_, _, _, rep, held in _slice_calls(q, k, v, do, cfg, arena)
                    ]
                    assert calls == want, f"{where}: {calls}"
                    assert arena.live_bytes == 0 and not arena._held, where

                    tight, ran = ScratchpadArena(peak["backward"] - 1), []
                    try:
                        for pass_, *_ in _slice_calls(q, k, v, do, cfg, tight):
                            ran.append(pass_)
                    except CapacityError as exc:  # up front, not from a later allocation
                        upfront = f"backward pass needs {peak['backward']} bytes"
                        ran.append("refused" if str(exc).startswith(upfront) else str(exc))
                    assert ran == ["forward", "refused"], f"{where}: one byte less gave {ran}"
                    assert tight.live_bytes == 0 and not tight._held, where
                    points += 1
    return points


def test_every_window_up_to_12_by_12_meets_the_closed_forms_and_refuses_one_byte_less():
    assert sweep_contract(12) == 12 * (12 * 13 // 2) * 2  # 1872: every r in 1..C, 2 sizes


if __name__ == "__main__":
    bound = int(sys.argv[1])
    start = time.perf_counter()
    points = sweep_contract(bound)
    print(f"contract holds at {points} points, L, C <= {bound}, "
          f"in {time.perf_counter() - start:.1f} s")
