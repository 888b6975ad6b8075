"""Property tests of the tiled kernels, the arena and the judge over the inputs the API accepts.

Hypothesis draws L and C up to 64, any chunk count r from 1 to C, a scale
in (0, 2], both accounting element sizes, the bytes already held in the
arena and its capacity; for the harness's tiled path, stacks of 1 to 3
batches and heads; for the harness's worst-error fold, lists of errors
with a NaN at any position or none; for the harness's run plan, one
(L, C, r) point and a capacity about its peaks, and short L, C and chunk
count lists that may hold invalid or repeated values; and, for the arena
alone, programs of allocations, loads, stores and frees in and out of
kernel calls that may fail. Examples are derandomized and bounded, so the suite draws the same
cases on every run.
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashwin import (
    CapacityError,
    DenseTensor,
    FlashContext,
    FlashwinError,
    Rng,
    ScratchpadArena,
    TileConfig,
    fill_uniform,
    flash_backward,
    flash_forward,
    naive_backward,
    naive_forward,
    peak_sram_backward,
    peak_sram_forward,
)
from flashwin import harness
from flashwin.harness import (
    ORACLE_TOL,
    _judge,
    _max_diff,
    _slices,
    _tiled,
    expected_backward_traffic,
    expected_forward_traffic,
    resolve_r,
    run_check_suite,
    run_traffic,
)
from flashwin.reference import AttnParams

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def problems(draw):
    """(q, k, v, dO, cfg, held bytes): one attention problem and an arena's prior load."""
    L = draw(st.integers(1, 64))
    C = draw(st.integers(1, 64))
    r = draw(st.integers(1, C))
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


@PROPERTY
@given(problems())
def test_kernels_match_the_reference_and_the_closed_forms(problem):
    q, k, v, do, cfg, held = problem
    L, C = q.shape
    fwd_peak, bwd_peak = peak_sram_forward(L, C, cfg), peak_sram_backward(L, C, cfg)
    assert fwd_peak == (L * L + 2 * L * -(-C // cfg.r)) * cfg.elem_bytes
    assert bwd_peak == fwd_peak + L * L * cfg.elem_bytes
    arena = _arena(held + bwd_peak, held)
    params = AttnParams(scale=cfg.scale)

    o, ctx, rep = flash_forward(q, k, v, cfg, arena)
    o_ref, p = naive_forward(q, k, v, params)
    assert _max_diff([(o, o_ref)]) <= ORACLE_TOL
    assert (rep.loads, rep.stores) == expected_forward_traffic(L, C)
    assert rep.peak_sram_bytes == fwd_peak
    assert arena.live_bytes == held

    *grads, rep = flash_backward(ctx, do, arena)
    assert _max_diff(zip(grads, naive_backward(q, k, v, p, do, params))) <= ORACLE_TOL
    assert (rep.loads, rep.stores) == expected_backward_traffic(L, C)
    assert rep.peak_sram_bytes == bwd_peak
    assert arena.live_bytes == held


@st.composite
def stacks(draw):
    """(q, k, v, dO, cfg): one (batch, heads, L, C) problem, batch and heads 1..3, L and C <= 32."""
    shape = tuple(draw(st.integers(1, n)) for n in (3, 3, 32, 32))
    r = draw(st.integers(1, shape[-1]))
    scale = draw(st.floats(0, 2, exclude_min=True))
    cfg = TileConfig(r=r, scale=scale, elem_bytes=draw(st.sampled_from([4, 8])))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    return (*(fill_uniform(rng, shape, -1.0, 1.0) for _ in range(4)), cfg)


# Why the check suite's goldens hold on the tiled path: a stack runs bit for bit as its slices.
@PROPERTY
@given(stacks())
def test_the_tiled_path_equals_the_per_slice_kernels_bitwise(stack):
    q, k, v, do, cfg = stack
    L, C = q.shape[2:]
    capacity = peak_sram_backward(L, C, cfg)
    calls = list(_tiled(q, k, v, do, cfg, capacity))
    slices = list(zip(*(_slices(t) for t in (q, k, v, do))))
    # Each slice's forward, then its backward, in (batch, head) order.
    assert [pass_ for pass_, *_ in calls] == ["forward", "backward"] * len(slices)
    want = []
    for sq, sk, sv, sdo in slices:
        arena = ScratchpadArena(capacity)
        o, ctx, rep = flash_forward(sq, sk, sv, cfg, arena)
        *grads, bwd_rep = flash_backward(ctx, sdo, arena)
        want += [([o], rep), (grads, bwd_rep)]
    for (_, got, got_rep, held), (outputs, rep) in zip(calls, want):
        assert all(np.array_equal(g.array, w.array) for g, w in zip(got, outputs, strict=True))
        assert (got_rep, held) == (rep, 0)


def _moved_by_one(rep):
    """Copies of ``rep`` with one count or the peak moved by -1 or +1, each with its verdict."""
    for d in (-1, 1):
        for kind in ("loads", "stores"):
            for name, n in getattr(rep, kind).items():
                counts = {**getattr(rep, kind), name: n + d}
                yield dataclasses.replace(rep, **{kind: counts}), (False, True)
        yield dataclasses.replace(rep, peak_sram_bytes=rep.peak_sram_bytes + d), (True, False)


@PROPERTY
@given(problems())
def test_the_judge_passes_each_pass_report_and_fails_exactly_the_flag_moved(problem):
    q, k, v, do, cfg, _ = problem
    L, C = q.shape
    arena = ScratchpadArena(peak_sram_backward(L, C, cfg))
    _, ctx, fwd = flash_forward(q, k, v, cfg, arena)
    bwd = flash_backward(ctx, do, arena)[-1]
    forms = {  # each pass's closed forms, evaluated as the run's plan evaluates them
        "forward": (expected_forward_traffic(L, C), peak_sram_forward(L, C, cfg)),
        "backward": (expected_backward_traffic(L, C), peak_sram_backward(L, C, cfg)),
    }
    for pass_, rep in (("forward", fwd), ("backward", bwd)):
        assert _judge(rep, forms[pass_]) == (True, True)
        for moved, verdict in _moved_by_one(rep):
            assert _judge(moved, forms[pass_]) == verdict


@PROPERTY
@given(st.lists(st.floats(min_value=0), min_size=1, max_size=8), st.data())
def test_the_worst_error_is_nan_if_and_only_if_some_error_is(errs, data):
    nan_at = data.draw(st.none() | st.integers(0, len(errs)), label="nan_at")
    if nan_at is not None:
        errs.insert(nan_at, math.nan)
    zero = DenseTensor._adopt(np.zeros(1))
    worst = _max_diff((DenseTensor._adopt(np.array([e])), zero) for e in errs)  # |e - 0| is e
    if nan_at is None:
        assert worst == max(errs)
    else:
        assert math.isnan(worst)


@settings(PROPERTY, max_examples=30)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([4, 8]), st.data())
def test_traffic_refuses_a_pass_if_and_only_if_check_makes_it_a_capacity_case(L, C, eb, data):
    r = data.draw(st.integers(1, C), label="r")
    cfg = TileConfig(r=r, elem_bytes=eb)
    fwd, bwd = peak_sram_forward(L, C, cfg), peak_sram_backward(L, C, cfg)
    about_peaks = st.sampled_from([bwd, bwd - 1, fwd, fwd - 1]) | st.integers(0, bwd + 1)
    capacity = data.draw(about_peaks, label="capacity")
    try:
        run_traffic(L, C, r, eb, capacity_bytes=capacity)
        refused = set()
    except CapacityError as exc:
        refused = {str(exc).split()[0]}  # "forward pass at ..." or "backward pass at ..."
    results = run_check_suite(1, [L], [C], [r], capacity_bytes=capacity, elem_bytes=eb)
    capacity_cases = {res.case_id for res in results if res.case_id.startswith("capacity_")}
    short = {"forward": "fwd", "backward": "bwd"}
    assert capacity_cases == {f"capacity_{short[p]}_L{L}_C{C}_r{r}" for p in refused}
    assert all(res.ok for res in results)


# Values invalid about one time in 12; any list may be empty, which is refused.
_EXTENT = st.sampled_from([*range(1, 12), 0])


@settings(PROPERTY, max_examples=60)
@given(
    st.lists(_EXTENT, min_size=0, max_size=3),
    st.lists(_EXTENT, min_size=0, max_size=3),
    st.lists(st.sampled_from([*range(1, 12), "auto", 0]), min_size=0, max_size=3),
    st.sampled_from([131072, 600, 0, -1]),
    st.sampled_from([4, 8]),
)
def test_check_refuses_before_any_input_or_runs_every_requested_value(Ls, Cs, rs, capacity, eb):
    made = []

    def counted(*args, _real=harness._rand):
        made.append(args[1])
        return _real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_rand", counted)
        try:
            results = run_check_suite(1, Ls, Cs, rs, capacity_bytes=capacity, elem_bytes=eb)
        except FlashwinError:
            assert made == []
            return
    assert Ls and Cs and rs  # an empty list is refused, before any input (above)
    tags = [re.search(r"_L(\d+)_C(\d+)_r(\d+)$", r.case_id) for r in results]
    ran = {tuple(map(int, tag.groups())) for tag in tags if tag}
    assert {L for L, _, _ in ran} == set(Ls)
    assert {C for _, C, _ in ran} == set(Cs)
    tiled = {(C, r) for _, C, r in ran}
    assert all(any((C, resolve_r(v, C)) in tiled for C in Cs) for v in rs)
    # Exactly the points asked for: each count at every C it tiles, at every L.
    asked = {(L, C, resolve_r(v, C)) for L in Ls for C in Cs for v in rs}
    assert ran == {(L, C, r) for L, C, r in asked if r <= C}


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


class _Injected(Exception):
    """The failure a generated kernel call raises at its drawn step."""


_MAKE = st.tuples(
    st.sampled_from(["allocate", "load", "foreign"]), st.integers(0, 6), st.sampled_from([4, 8])
)
_USE = st.tuples(st.sampled_from(["store", "free"]), st.integers(0, 31))
_STEP = _MAKE | _USE
# A call runs its steps and, when its drawn step index is in range, raises there.
_CALL = st.tuples(st.just("call"), st.lists(_STEP, max_size=8), st.none() | st.integers(0, 8))


@settings(PROPERTY, max_examples=200)
@given(st.lists(_STEP | _CALL, max_size=10))
def test_the_arena_holds_exactly_the_buffers_made_and_not_freed(program):
    """A model of the held set against every step, in and out of kernel calls.

    ``store`` and ``free`` are applied to any buffer made so far, held or
    not: this arena's (live, freed or dropped by a failed call) and another
    arena's. A held one is accepted; any other is refused and changes
    nothing. Live bytes always equal the charges of the held buffers, a
    failed call restores the held set and live bytes of its entry, and a
    call that ends reports exactly its transfers and peak.
    """
    arena, other = ScratchpadArena(96), ScratchpadArena()
    made = []  # (buffer, elements, charged bytes) for every buffer of either arena
    held = {}  # index into made -> charged bytes, for the buffers arena holds

    def step(op, ledger):
        if op[0] == "foreign":
            _, n, eb = op
            made.append((other.allocate("f", (n,), eb), n, n * eb))
        elif op[0] in ("allocate", "load"):
            kind, n, eb = op
            if kind == "allocate":
                make = lambda: arena.allocate("x", (n,), eb)
            else:
                make = lambda: arena.load("L", np.ones(n), eb)
            if arena.live_bytes + n * eb > arena.capacity_bytes:
                with pytest.raises(CapacityError):
                    make()
                return
            buf = make()
            if kind == "load":
                ledger["loads"]["L"] = ledger["loads"].get("L", 0) + n
            held[len(made)] = n * eb
            made.append((buf, n, n * eb))
            ledger["peak"] = max(ledger["peak"], arena.live_bytes)
        elif made:
            kind, i = op
            i %= len(made)
            buf, n, _ = made[i]
            use = lambda: arena.store("S", np.empty(n), buf) if kind == "store" else arena.free(buf)
            if i not in held:
                live = arena.live_bytes
                with pytest.raises(FlashwinError, match=f"^cannot {kind} a buffer the arena does"):
                    use()
                assert arena.live_bytes == live
                return
            use()
            if kind == "store":
                ledger["stores"]["S"] = ledger["stores"].get("S", 0) + n
            else:
                del held[i]

    for op in program:
        if op[0] != "call":
            step(op, {"loads": {}, "stores": {}, "peak": 0})  # outside a call: no report
        else:
            _, steps, fail_at = op
            entry_live, entry_held = arena.live_bytes, dict(held)
            ledger = {"loads": {}, "stores": {}, "peak": entry_live}
            try:
                with arena.kernel_call("generated", 0) as report:
                    for j, inner in enumerate(steps):
                        if j == fail_at:
                            raise _Injected
                        step(inner, ledger)
                        assert arena.live_bytes == sum(held.values())
                    if fail_at == len(steps):
                        raise _Injected
            except _Injected:
                assert report() is None
                assert arena.live_bytes == entry_live
                held.clear()
                held.update(entry_held)
                for i in range(len(made)):  # a store outside a call probes the held set
                    step(("store", i), {"loads": {}, "stores": {}, "peak": 0})
            else:
                rep = report()
                assert (rep.loads, rep.stores) == (ledger["loads"], ledger["stores"])
                assert rep.peak_sram_bytes == ledger["peak"] - entry_live
        assert arena.live_bytes == sum(held.values())

    for i in list(held):
        arena.free(made[i][0])
    assert arena.live_bytes == 0
