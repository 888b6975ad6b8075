"""Correctness suites, traffic reports, benchmark tables, and the demo walkthrough.

Everything here is deterministic: ``check`` and ``demo`` draw their inputs from a generator
seeded by their ``seed``, ``bench`` from one seeded by ``DEFAULT_SEED`` (each shape of
``check`` and ``bench`` on a child stream split off it), and ``traffic`` runs on zeros. Only
``bench`` rows carry wall-clock data, so identical seeds and grids produce identical bytes.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from .errors import CapacityError, FlashwinError, ShapeError, _integer
from .flash import TileConfig, _slice_calls, _slices, peak_sram_backward, peak_sram_forward
from .memory import DEFAULT_CAPACITY_BYTES, ScratchpadArena, merge_reports
from .reference import FD_STEP, finite_diff_grad, naive_backward, naive_forward
from .tensor import DenseTensor, Rng, _tensors, _validated, fill_uniform, max_abs_diff, zeros
from .windowing import WindowConfig, window_partition, window_reverse

ORACLE_TOL = 1e-10
GRAD_TOL = 1e-6
DEFAULT_SEED = 42

# Geometries exercised by the windowing round-trip cases of `check`.
ROUNDTRIP_GEOMETRIES = [
    (4, 4, 1, 2),
    (6, 6, 2, 3),
    (8, 8, 4, 2),
    (14, 14, 3, 7),
    (224, 224, 3, 7),
]


@dataclass
class SuiteResult:
    """Outcome of one check case, as printed in the table."""

    case_id: str
    max_err: float
    traffic_ok: bool
    sram_ok: bool
    ok: bool


@dataclass
class BenchRow:
    """One CSV row of ``bench``: the fields in order, ``pass_`` as column ``pass``."""

    batch: int
    heads: int
    L: int
    C: int
    r: int
    impl: str
    pass_: str
    elapsed_ns: int
    peak_sram_bytes: int
    total_global_elements: int


BENCH_COLUMNS = [f.name.rstrip("_") for f in fields(BenchRow)]


def resolve_r(value: str | int, C: int) -> int:
    """'auto' is one chunk per 16 features of the extent C; else TileConfig's rule as is."""
    return TileConfig(r=max(1, _validated((C,))[0] // 16) if value == "auto" else value).r


def expected_forward_traffic(L: int, C: int) -> tuple[dict[str, int], dict[str, int]]:
    return {"Q": L * C, "K": L * C, "V": L * C}, {"O": L * C}


def expected_backward_traffic(L: int, C: int) -> tuple[dict[str, int], dict[str, int]]:
    return (
        {"Q": 2 * L * C, "K": 2 * L * C, "V": L * C, "dO": L * C},
        {"dQ": L * C, "dK": L * C, "dV": L * C},
    )


# Each kernel pass's closed forms: ((loads, stores) of one window, the peak of every call).
# ``_plan`` is their one reader: it evaluates them once per point, and every refusal, printed
# formula and verdict of the run reads that value. Names resolve when the plan runs, so a
# traced or patched function is the one printed and judged.
_CONTRACT = {
    "forward": lambda L, C, cfg: (expected_forward_traffic(L, C), peak_sram_forward(L, C, cfg)),
    "backward": lambda L, C, cfg: (expected_backward_traffic(L, C), peak_sram_backward(L, C, cfg)),
}
_PASSES = tuple(_CONTRACT)  # ("forward", "backward"), in the order one window runs them


def _judge(report, form) -> tuple[bool, bool]:
    """(traffic_ok, peak_ok): one call's report against its pass's evaluated closed forms."""
    traffic, peak = form
    return (report.loads, report.stores) == traffic, report.peak_sram_bytes == peak


def _plan(fn, passes, Ls, Cs, r_values, elem_bytes, capacity_bytes) -> list[tuple]:
    """The (L, C, tiling, forms, first of ``passes`` that does not fit or None) points of a run,
    where forms maps each of ``passes`` to its ``_CONTRACT`` closed forms at that point.

    Every rule is applied before any input, in this order: the arena's capacity rule; at least
    one value per axis, each an iterable (the operand rule, naming ``fn``); the tensor extent
    rule to each (L, C); TileConfig's chunk-count rule; the coverage rule, by which a chunk count
    above a C is skipped for that C, but each count must tile some C and each C be tiled by some
    count; and each pass's closed-form peak. Repeated values run once; points are in run order.
    """
    capacity_bytes = _integer("capacity", capacity_bytes, minimum=0)  # the arena's rule
    for axis, values in (("L", Ls), ("C", Cs), ("chunk count", r_values)):
        if not values:
            raise ShapeError(f"at least one {axis} is needed")
    _tensors(fn, Iterable, Ls=Ls, Cs=Cs, r_values=r_values)
    for extent in [(L, C) for L in Ls for C in Cs]:
        _validated(extent)  # before repeats go, so 1 cannot hide a True, nor 2 a 2.0
    Ls, Cs = list(dict.fromkeys(Ls)), list(dict.fromkeys(Cs))
    # Each chunk count's tiling of each C, made by TileConfig's rule.
    tiling = lambda r, C: TileConfig(resolve_r(r, C), elem_bytes=elem_bytes)
    tilings = [{C: tiling(r, C) for C in Cs} for r in r_values]
    for value, cfgs in zip(r_values, tilings):
        if all(cfg.r > C for C, cfg in cfgs.items()):
            where = f"every feature count {Cs}" if len(Cs) > 1 else f"feature count {Cs[0]}"
            raise ShapeError(f"chunk count {value} exceeds {where}")
    # Each C's tilings that fit it, one per distinct chunk count, in the order asked for.
    tiles = {C: list({t[C].r: t[C] for t in tilings if t[C].r <= C}.values()) for C in Cs}
    for C in Cs:
        if not tiles[C]:
            tilings[0][C].chunk_spans(C)  # raises the first count's refusal at this C
    points = []
    for L, C, cfg in [(L, C, cfg) for L in Ls for C in Cs for cfg in tiles[C]]:
        forms = {p: _CONTRACT[p](L, C, cfg) for p in passes}  # the run's one evaluation
        unfit = next((p for p, (_, peak) in forms.items() if peak > capacity_bytes), None)
        points.append((L, C, cfg, forms, unfit))
    return points


def _fitting(points, capacity_bytes) -> list[tuple]:
    """``_plan``'s points of a run that skips no pass: the first that does not fit is refused."""
    for L, C, _, forms, unfit in points:
        if unfit:
            need = forms[unfit][1]
            msg = f"{unfit} pass at L={L}, C={C} needs {need} bytes of scratchpad"
            raise CapacityError(f"{msg}, capacity is {capacity_bytes}")
    return points


# Baseline traffic model for bench reporting: the untiled pipeline reads and
# writes every operand of each matrix op once, with S/P/dP/dS materialized
# in global memory. Forward: loads 3LC + 2L^2, stores LC + 2L^2. Backward:
# loads 5L^2 + 5LC, stores 2L^2 + 3LC. Reporting only, never asserted.
def naive_total_elements(L: int, C: int, pass_: str) -> int:
    total = 4 * L * C + 4 * L * L
    if pass_ == "fwd_bwd":
        total += 7 * L * L + 8 * L * C
    return total


def _rand(rng: Rng, shape: Sequence[int]) -> DenseTensor:
    return fill_uniform(rng, shape, -1.0, 1.0)


def run_check_suite(
    seed: int,
    Ls: Sequence[int],
    Cs: Sequence[int],
    r_values: Sequence[str | int],
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    elem_bytes: int = 4,
) -> list[SuiteResult]:
    """Run oracle, gradient, round-trip, traffic, and occupancy checks.

    Each (L, C, r) point is one ``_tiled`` run on its (L, C) inputs, and each kernel case
    one call of it. A pass that ``_plan`` finds does not fit is an expected-error case that
    passes exactly when the run refuses at that pass (a refusal at any other propagates).
    Each (L, C) splits its own stream off the master. Where some forward fits, the shape
    draws its inputs and runs ``_untiled`` once for every chunk count, with dO only where
    some backward fits; a pass whose reference raised has no entry, which fails its cases.
    Elsewhere it draws nothing and runs no reference, on one zero (L, C) input and no dO,
    which the refusal never reads. The whole grid is planned before the first case runs.
    """
    points = _plan("run_check_suite", _PASSES, Ls, Cs, r_values, elem_bytes, capacity_bytes)
    master = Rng(seed)
    results = [_roundtrip_case(master.split(), *g) for g in ROUNDTRIP_GEOMETRIES]

    for (L, C), shape_points in groupby(points, key=lambda point: point[:2]):
        shape_points = list(shape_points)
        rng = master.split()  # split at every shape, so no later shape's draws move
        ref, fd = {}, None  # per pass the reference's outputs; then the central differences
        if any(unfit != "forward" for *_, unfit in shape_points):
            q, k, v, do = (_rand(rng, (L, C)) for _ in range(4))
            backward = any(unfit is None for *_, unfit in shape_points)
            try:
                for pass_, outputs in _untiled(q, k, v, do if backward else None):
                    ref[pass_] = outputs
            except FlashwinError:
                pass  # the pass that raised, and any after it, has no entry
        else:  # every forward is refused on its closed-form need before it reads an input
            q = k = v = zeros((L, C))
            do = None
        # Outputs of each chunk count, for the chunk-count invariance case.
        fwd_runs: list[Sequence[DenseTensor]] = []
        bwd_runs: list[Sequence[DenseTensor]] = []

        for _, _, cfg, forms, unfit in shape_points:
            tag = f"L{L}_C{C}_r{cfg.r}"
            calls, refused = {}, False
            try:
                for pass_, *call in _tiled(q, k, v, do, cfg, capacity_bytes):
                    calls[pass_] = call
            except CapacityError:
                # One window's calls run forward then backward: the next one was refused.
                if unfit is None or _PASSES.index(unfit) != len(calls):
                    raise
                refused = True
            if unfit != "forward":
                fwd_runs.append(calls["forward"][0])
                results.append(_kernel_case(f"fwd_{tag}", "forward", calls, ref, forms))
            if unfit:
                case = {"forward": "capacity_fwd_", "backward": "capacity_bwd_"}[unfit] + tag
                results.append(_result(case, 0.0, sram_ok=refused))
                continue

            grads = calls["backward"][0]
            bwd_runs.append(grads)
            results.append(_kernel_case(f"bwd_{tag}", "backward", calls, ref, forms))
            if L * C <= 256:
                fd = fd or _fd_grads(q, k, v, do)  # once per shape, at its first grad_ case
                err = _max_diff(zip(grads, fd))
                results.append(_result(f"grad_{tag}", err, tol=GRAD_TOL))

        if len(fwd_runs) >= 2:
            err = _max_diff(
                p for runs in (fwd_runs, bwd_runs) for run in runs[1:] for p in zip(runs[0], run)
            )
            results.append(_result(f"chunkinv_L{L}_C{C}", err))

    return results


def _roundtrip_case(rng: Rng, H: int, W: int, C: int, k: int) -> SuiteResult:
    """``window_reverse`` undoes ``window_partition`` exactly, on one image drawn from ``rng``.
    A function of its own, so that no image outlives its case into the kernel cases."""
    cfg = WindowConfig(H=H, W=W, C=C, k=k)
    x = _rand(rng, (H, W, C))
    err = max_abs_diff(x, window_reverse(window_partition(x, cfg), cfg))
    return _result(f"roundtrip_{H}x{W}x{C}_k{k}", err, tol=0.0)


def _result(
    case_id: str,
    err: float,
    tol: float = ORACLE_TOL,
    traffic_ok: bool = True,
    sram_ok: bool = True,
) -> SuiteResult:
    return SuiteResult(case_id, err, traffic_ok, sram_ok, err <= tol and traffic_ok and sram_ok)


def _kernel_case(case_id, pass_, calls, ref, forms) -> SuiteResult:
    """The ``pass_`` call's outputs against the reference's (none: it raised), and its report
    against the point's evaluated ``forms`` of that pass."""
    got, report, held = calls[pass_]
    want = ref.get(pass_)
    err = math.inf if want is None else _max_diff(zip(got, want))
    traffic_ok, peak_ok = _judge(report, forms[pass_])
    return _result(case_id, err, traffic_ok=traffic_ok, sram_ok=peak_ok and held == 0)


def _max_diff(pairs: Iterable[tuple[DenseTensor, DenseTensor]]) -> float:
    """Worst max_abs_diff of (got, want) pairs; NaN if any is NaN, which builtin max can drop."""
    errs = [max_abs_diff(a, b) for a, b in pairs]
    return math.nan if any(map(math.isnan, errs)) else max(errs)


def _fd_grads(q, k, v, do) -> tuple[DenseTensor, DenseTensor, DenseTensor]:
    """Central differences of <dO, O> through ``naive_forward``: each probe stacks perturbed
    copies of one operand, broadcast against the other two; ``dot`` gives one per copy."""

    def dot(qkv):
        o = naive_forward(*qkv)[0].array
        return (do.array * o).reshape(o.shape[0], -1).sum(axis=1)

    fd_q = finite_diff_grad(lambda t: dot((t, k, v)), q, FD_STEP)
    fd_k = finite_diff_grad(lambda t: dot((q, t, v)), k, FD_STEP)
    fd_v = finite_diff_grad(lambda t: dot((q, k, t)), v, FD_STEP)
    return fd_q, fd_k, fd_v


def render_suite_table(results: list[SuiteResult]) -> str:
    """Fixed-width table, one line per case (a run has at least one); deterministic for a run."""
    width = max(len(r.case_id) for r in results)
    lines = [f"{'case':<{width}}  {'max_err':>10}  traffic  sram  status"]
    for r in results:
        lines.append(
            f"{r.case_id:<{width}}  {r.max_err:>10.3e}  "
            f"{'ok' if r.traffic_ok else 'FAIL':<7}  "
            f"{'ok' if r.sram_ok else 'FAIL':<4}  "
            f"{'PASS' if r.ok else 'FAIL'}"
        )
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} cases passed")
    return "\n".join(lines) + "\n"


def run_traffic(
    L: int,
    C: int,
    r_value: str | int,
    elem_bytes: int,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
) -> tuple[str, list[list], list[str]]:
    """One window's forward and backward through the tiled path (``_tiled``), planned first:
    the report as text, its per-operand CSV rows (header first), and the broken claims. No
    count or peak reads an input, so one zero (L, C) tensor serves as Q, K, V and dO."""
    plan = _plan("run_traffic", _PASSES, [L], [C], [r_value], elem_bytes, capacity_bytes)
    [(_, _, cfg, forms, _)] = _fitting(plan, capacity_bytes)
    x = zeros((L, C))
    calls = [(pass_, rep, held) for pass_, _, rep, held in _tiled(x, x, x, x, cfg, capacity_bytes)]
    failed = _broken_claims(calls, forms)
    lines = [f"shape L={L} C={C} r={cfg.r} elem_bytes={cfg.elem_bytes}"]
    for pass_, rep, _ in calls:
        peak = forms[pass_][1]
        formula = f"formula {peak} B, {peak / 1000:.3f} kB"
        lines.append(f"{pass_:<8} peak: {rep.peak_sram_bytes} B ({formula})")
    for pass_, rep, _ in calls:
        lines.append(f"{pass_:<8} loads: {_fmt_counts(rep.loads)}")
        lines.append(f"{pass_:<8} stores: {_fmt_counts(rep.stores)}")
    lines.append(f"instrumented counts match closed form: {'NO' if failed else 'yes'}")
    rows = [["pass", "operand", "loads", "stores"]]
    for short, (_, rep, _) in zip(("fwd", "bwd"), calls):
        for name in sorted(set(rep.loads) | set(rep.stores)):
            rows.append([short, name, rep.loads.get(name, 0), rep.stores.get(name, 0)])
    return "\n".join(lines) + "\n", rows, failed


def _fmt_counts(counts: dict[str, int]) -> str:
    return ", ".join(f"{name}={n}" for name, n in sorted(counts.items()))


def run_bench(
    batches: Sequence[int],
    heads: int,
    L: int,
    Cs: Sequence[int],
    r_value: str | int = "auto",
    pass_: str = "fwd",
    repeats: int = 3,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    elem_bytes: int = 4,
) -> tuple[list[BenchRow], list[str]]:
    """Median-of-repeats timings for the untiled and tiled paths, and the broken claims.

    Timings (after one warm-up run of each path) are informational; the two paths' repeats
    alternate, so drift during a config falls on both alike. The run is planned first:
    ``_plan``'s rules and every footprint, then at least one batch and every (batch, heads,
    L, C) extent, are checked before any input is made. The tiled path is ``_tiled``, and
    its last run's calls are judged by ``_broken_claims``; a flash row merges their reports.
    The untiled path is ``_untiled`` on the same stacks, one reference call per (batch,
    head) slice and pass; it keeps no output.
    """
    repeats = _integer("repeats", repeats, minimum=3)
    if pass_ not in ("fwd", "fwd_bwd"):
        raise FlashwinError(f"pass must be fwd or fwd_bwd, got {pass_!r}")
    passes = _PASSES if pass_ == "fwd_bwd" else _PASSES[:1]
    plan = _plan("run_bench", passes, [L], Cs, [r_value], elem_bytes, capacity_bytes)
    plan = _fitting(plan, capacity_bytes)
    if not batches:
        raise ShapeError("at least one batch is needed")
    _tensors("run_bench", Iterable, batches=batches)
    # Every extent is checked before a repeated batch is dropped (it runs once).
    runs = {(_validated((b, heads, L, C)), cfg): f for b in batches for _, C, cfg, f, _ in plan}
    master = Rng(DEFAULT_SEED)
    rows: list[BenchRow] = []
    failed: list[str] = []

    for (shape, cfg), forms in runs.items():
        batch, heads, L, C = shape
        rng = master.split()
        q, k, v = (_rand(rng, shape) for _ in range(3))
        do = _rand(rng, shape) if pass_ == "fwd_bwd" else None  # drawn after q, k and v

        # Each call's (pass, report, held bytes) only: no output outlives its call.
        run = lambda: [(p, rep, n) for p, _, rep, n in _tiled(q, k, v, do, cfg, capacity_bytes)]
        untiled = lambda: deque(_untiled(q, k, v, do), maxlen=0)
        (flash_ns, naive_ns), (ran, _) = _medians_ns([run, untiled], repeats)
        broken = _broken_claims(ran, forms)
        failed += [f"bench batch={batch} C={C}: {claim}" for claim in broken]
        merged = merge_reports(rep for _, rep, _ in ran)
        for impl, ns, peak, elements in (
            ("naive", naive_ns, 0, batch * heads * naive_total_elements(L, C, pass_)),
            ("flash", flash_ns, merged.peak_sram_bytes, merged.total_elements()),
        ):
            rows.append(BenchRow(batch, heads, L, C, cfg.r, impl, pass_, ns, peak, elements))

    rows.sort(key=lambda b: (b.batch, b.heads, b.L, b.C, b.r, b.impl, b.pass_))
    return rows, failed


def _tiled(q, k, v, do, cfg, capacity_bytes) -> Iterator[tuple]:
    """The tiled path of every subcommand: ``_slice_calls`` on an arena built through this
    module's ``ScratchpadArena``. Yields per call its pass, outputs, report and held bytes."""
    calls = _slice_calls(q, k, v, do, cfg, ScratchpadArena(capacity_bytes))
    return ((pass_, outputs, rep, held) for pass_, outputs, _, rep, held in calls)


def _untiled(q, k, v, do) -> Iterator[tuple]:
    """The untiled twin of ``_tiled``: per (L, C) slice of ``_slices``, its ``("forward",
    [O])`` from ``naive_forward``, then given ``do`` its ``("backward", [dQ, dK, dV])`` from
    ``naive_backward`` with that forward's P. A reference that raises ends the iteration."""
    for sq, sk, sv, sdo in zip(*map(_slices, (q, k, v, do))):
        o, p = naive_forward(sq, sk, sv)
        yield "forward", [o]
        if sdo is not None:
            yield "backward", [*naive_backward(sq, sk, sv, p, sdo)]


def _broken_claims(calls, forms) -> list[str]:
    """Per pass of ``forms`` (a point's evaluated closed forms), the failed claims of a list of
    (pass, report, held bytes) calls: in how many windows (calls) the traffic is not the closed
    form, each peak that is not its formula; then the bytes each pass's calls left held on the
    arena. Every call is judged against the one value of its pass; nothing is re-evaluated."""
    claims, held = [], {}
    for pass_, form in forms.items():
        runs = [(rep, n, *_judge(rep, form)) for p, rep, n in calls if p == pass_]
        if broken := sum(not traffic_ok for _, _, traffic_ok, _ in runs):
            where = f"in {broken} of {len(runs)} windows"
            claims.append(f"{pass_} loads or stores differ from the closed form {where}")
        peak = form[1]
        bad = [rep.peak_sram_bytes for rep, _, _, peak_ok in runs if not peak_ok]
        claims += [f"{pass_} peak {n} B differs from its formula {peak} B" for n in bad]
        held[pass_] = sum(n for _, n, _, _ in runs)
    claims += [f"{pass_} leaves {n} B live on the arena" for pass_, n in held.items() if n]
    return list(dict.fromkeys(claims))  # one line per distinct claim


def _medians_ns(runs: Sequence[Callable[[], object]], repeats: int) -> tuple[list[int], list]:
    """Median wall time of each of ``runs`` over ``repeats`` rounds after one warm-up round,
    and the last result of each. A round calls every run once, in order on even rounds and
    in reverse on odd ones, so neither side is always the one that runs first."""
    results = [run() for run in runs]  # warm-up
    samples = [[] for _ in runs]
    for i in range(repeats):
        for j in range(len(runs))[:: 1 if i % 2 == 0 else -1]:
            t0 = time.perf_counter_ns()
            results[j] = runs[j]()
            samples[j].append(time.perf_counter_ns() - t0)
    return [int(statistics.median(ns)) for ns in samples], results


def run_demo(
    H: int,
    W: int,
    C: int,
    k: int,
    seed: int = DEFAULT_SEED,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    elem_bytes: int = 4,
) -> tuple[str, list[str]]:
    """Partition -> per-window attention -> reverse walkthrough, as text, and the broken claims.

    Planned first: the geometry, the capacity and one window's forward fit precede the image.
    The windows run through ``_tiled`` as one (N, 1, L, C) stack, one forward call each, and
    ``_untiled`` checks them window by window, one ``naive_forward`` call each.
    """
    cfg = WindowConfig(H=H, W=W, C=C, k=k)
    N, L = cfg.num_windows, cfg.seq_len
    plan = _plan("run_demo", _PASSES[:1], [L], [C], ["auto"], elem_bytes, capacity_bytes)
    [(_, _, tile, forms, _)] = _fitting(plan, capacity_bytes)
    rng = Rng(seed)
    x = _rand(rng, (H, W, C))
    windows = window_partition(x, cfg)

    roundtrip = max_abs_diff(x, window_reverse(windows, cfg))

    stacked = DenseTensor._adopt(windows.array.reshape(N, 1, L, C))
    calls = list(_tiled(stacked, stacked, stacked, None, tile, capacity_bytes))
    ref = _untiled(windows, windows, windows, None)
    oracle_err = _max_diff((got, want) for (_, [got], _, _), (_, [want]) in zip(calls, ref))
    o = DenseTensor._adopt(np.stack([out.array for _, [out], _, _ in calls]))
    calls = [(pass_, rep, held) for pass_, _, rep, held in calls]  # no output kept twice
    report = merge_reports(rep for _, rep, _ in calls)
    image = window_reverse(o, cfg)
    peak = forms["forward"][1]
    lines = [
        f"image {H}x{W}x{C}, window {k}x{k} -> {N} windows of length {L}",
        f"round_trip_max_abs_diff: {roundtrip:g}",
        f"attention output shape: {stacked.shape} -> image {image.shape}",
        f"max oracle error over {N} windows: {oracle_err:.3e}",
        f"merged loads: {_fmt_counts(report.loads)}",
        f"merged stores: {_fmt_counts(report.stores)}",
        f"per-window peak: {report.peak_sram_bytes} B (forward formula {peak} B at r={tile.r})",
    ]
    broken = _broken_claims(calls, forms)
    if not oracle_err <= ORACLE_TOL:
        broken.insert(0, f"oracle error {oracle_err:.3e} exceeds {ORACLE_TOL:g}")
    if not roundtrip <= 0.0:  # exact, as check's roundtrip_ cases; a NaN fails too
        broken.insert(0, f"round trip error {roundtrip:g} exceeds 0")
    return "\n".join(lines) + "\n", broken
