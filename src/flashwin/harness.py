"""Correctness suites, traffic reports, benchmark tables, and the demo walkthrough.

Everything here is deterministic given a seed: per-case inputs come from
split child streams of one master generator, and the check, traffic and
demo texts carry no wall-clock data (only ``bench`` rows do), so
identical seeds and grids produce identical bytes.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from itertools import groupby, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, FlashwinError, ShapeError
from .flash import TileConfig, flash_backward, flash_forward, peak_sram_backward, peak_sram_forward
from .memory import DEFAULT_CAPACITY_BYTES, ScratchpadArena, TrafficReport, merge_reports
from .memory import _checked_capacity  # the arena's capacity rule, without an arena
from .reference import FD_STEP, _stack_len, finite_diff_grad, naive_backward, naive_forward
from .tensor import DenseTensor, Rng, _validated, fill_uniform, max_abs_diff
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
    """'auto' is one chunk per 16 features; any other value must pass TileConfig's rule as is."""
    return TileConfig(r=max(1, C // 16) if value == "auto" else value).r


def expected_forward_traffic(L: int, C: int) -> tuple[dict[str, int], dict[str, int]]:
    return {"Q": L * C, "K": L * C, "V": L * C}, {"O": L * C}


def expected_backward_traffic(L: int, C: int) -> tuple[dict[str, int], dict[str, int]]:
    return (
        {"Q": 2 * L * C, "K": 2 * L * C, "V": L * C, "dO": L * C},
        {"dQ": L * C, "dK": L * C, "dV": L * C},
    )


# Each kernel pass's closed forms: (loads, stores) of one window, and the peak of every
# call. Names resolve at call time, so a traced or patched function is the one judged.
_CONTRACT = {
    "forward": lambda L, C, cfg: (expected_forward_traffic(L, C), peak_sram_forward(L, C, cfg)),
    "backward": lambda L, C, cfg: (expected_backward_traffic(L, C), peak_sram_backward(L, C, cfg)),
}
_PASSES = tuple(_CONTRACT)  # ("forward", "backward"), in the order one window runs them


def _judge(report, pass_, L, C, cfg) -> tuple[bool, bool]:
    """(traffic_ok, peak_ok): one ``pass_`` call's report against one window's closed forms."""
    traffic, peak = _CONTRACT[pass_](L, C, cfg)
    return (report.loads, report.stores) == traffic, report.peak_sram_bytes == peak


def _peak(pass_: str, L: int, C: int, cfg: TileConfig) -> int:
    return _CONTRACT[pass_](L, C, cfg)[1]


def _plan(passes, Ls, Cs, r_values, elem_bytes, capacity_bytes) -> list[tuple]:
    """The (L, C, tiling, first of ``passes`` that does not fit or None) points of a run.

    Every rule is applied before any input, in this order: the arena's capacity rule; the
    tensor extent rule to each (L, C), then to each extent alone (an empty axis hides none);
    TileConfig's chunk-count rule; the coverage rule, by which a chunk count above a C is
    skipped for that C, but each count must tile some C and each C be tiled by some count;
    and each pass's closed-form peak. Repeated values run once; points are in run order.
    """
    capacity_bytes = _checked_capacity(capacity_bytes)
    Ls, Cs = list(dict.fromkeys(Ls)), list(dict.fromkeys(Cs))
    for extent in [(L, C) for L in Ls for C in Cs] + [(e,) for e in (*Ls, *Cs)]:
        _validated(extent)
    # Each chunk count's tiling of each C, made by TileConfig's rule.
    tiling = lambda r, C: TileConfig(resolve_r(r, C), elem_bytes=elem_bytes)
    tilings = [{C: tiling(r, C) for C in Cs} for r in r_values]
    for value, cfgs in zip(r_values, tilings):
        if cfgs and all(cfg.r > C for C, cfg in cfgs.items()):
            where = f"every feature count {Cs}" if len(Cs) > 1 else f"feature count {Cs[0]}"
            raise ShapeError(f"chunk count {value} exceeds {where}")
    # Each C's tilings that fit it, one per distinct chunk count, in the order asked for.
    tiles = {C: list({t[C].r: t[C] for t in tilings if t[C].r <= C}.values()) for C in Cs}
    for C in Cs if tilings else ():
        if not tiles[C]:
            tilings[0][C].chunk_width(C)  # raises the first count's refusal at this C
    return [
        (L, C, cfg, next((p for p in passes if _peak(p, L, C, cfg) > capacity_bytes), None))
        for L in Ls
        for C in Cs
        for cfg in tiles[C]
    ]


def _fitting(points, capacity_bytes) -> list[tuple]:
    """``_plan``'s points of a run that skips no pass: the first that does not fit is refused."""
    for L, C, cfg, unfit in points:
        if unfit:
            need = _peak(unfit, L, C, cfg)
            msg = f"{unfit} pass at L={L}, C={C} needs {need} bytes of scratchpad"
            raise CapacityError(f"{msg}, capacity is {_checked_capacity(capacity_bytes)}")
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

    Each (L, C, r) point is one ``_tiled`` run on a (1, 1, L, C) view of its inputs, and
    each kernel case one call of it. A pass that ``_plan`` finds does not fit is an
    expected-error case, passing when the run refuses at that pass (a refusal at any other
    propagates) and the untiled reference runs. The reference runs at most once per (L, C),
    for every chunk count. The whole grid is planned before the first case runs.
    """
    points = _plan(_PASSES, Ls, Cs, r_values, elem_bytes, capacity_bytes)
    if not points:
        return []
    results: list[SuiteResult] = []
    master = Rng(seed)

    for H, W, C, k in ROUNDTRIP_GEOMETRIES:
        cfg = WindowConfig(H=H, W=W, C=C, k=k)
        x = _rand(master.split(), (H, W, C))
        err = max_abs_diff(x, window_reverse(window_partition(x, cfg), cfg))
        results.append(_result(f"roundtrip_{H}x{W}x{C}_k{k}", err, tol=0.0))

    for (L, C), shape_points in groupby(points, key=lambda point: point[:2]):
        rng = master.split()
        q, k, v, do = (_rand(rng, (L, C)) for _ in range(4))
        ref = _Reference(q, k, v, do)
        q4, k4, v4, do4 = (DenseTensor._adopt(t.array.reshape(1, 1, L, C)) for t in (q, k, v, do))
        # Outputs of each chunk count, for the chunk-count invariance case.
        fwd_runs: list[Sequence[DenseTensor]] = []
        bwd_runs: list[Sequence[DenseTensor]] = []

        for _, _, cfg, unfit in shape_points:
            tag = f"L{L}_C{C}_r{cfg.r}"
            calls, refused = {}, False
            try:
                for pass_, *call in _tiled(q4, k4, v4, do4, cfg, capacity_bytes):
                    calls[pass_] = call
            except CapacityError:
                # One window's calls run forward then backward: the next one was refused.
                if unfit is None or _PASSES.index(unfit) != len(calls):
                    raise
                refused = True
            if unfit != "forward":
                fwd_runs.append(calls["forward"][0])
                want = None if ref.forward is None else ref.forward[:1]
                results.append(_kernel_case(f"fwd_{tag}", *calls["forward"], want, "forward", cfg))
            if unfit:
                ran = (ref.forward if unfit == "forward" else ref.grads) is not None
                case = {"forward": "capacity_fwd_", "backward": "capacity_bwd_"}[unfit] + tag
                results.append(_result(case, 0.0 if ran else math.inf, sram_ok=refused))
                continue

            grads, *bwd = calls["backward"]
            bwd_runs.append(grads)
            results.append(_kernel_case(f"bwd_{tag}", grads, *bwd, ref.grads, "backward", cfg))
            if L * C <= 256:
                err = _max_diff(zip(grads, ref.fd_grads))
                results.append(_result(f"grad_{tag}", err, tol=GRAD_TOL))

        if len(fwd_runs) >= 2:
            err = _max_diff(
                p for runs in (fwd_runs, bwd_runs) for run in runs[1:] for p in zip(runs[0], run)
            )
            results.append(_result(f"chunkinv_L{L}_C{C}", err))

    return results


def _result(
    case_id: str,
    err: float,
    tol: float = ORACLE_TOL,
    traffic_ok: bool = True,
    sram_ok: bool = True,
) -> SuiteResult:
    return SuiteResult(case_id, err, traffic_ok, sram_ok, err <= tol and traffic_ok and sram_ok)


def _kernel_case(case_id, got, report, held, want, pass_, cfg) -> SuiteResult:
    """One call's outputs (each L x C) against the shared reference's (None: it raised), judged."""
    err = math.inf if want is None else _max_diff(zip(got, want))
    traffic_ok, peak_ok = _judge(report, pass_, *got[0].shape, cfg)
    return _result(case_id, err, traffic_ok=traffic_ok, sram_ok=peak_ok and held == 0)


def _max_diff(pairs: Iterable[tuple[DenseTensor, DenseTensor]]) -> float:
    """Worst max_abs_diff of (got, want) pairs; NaN if any is NaN, which builtin max can drop."""
    errs = [max_abs_diff(a, b) for a, b in pairs]
    return math.nan if any(map(math.isnan, errs)) else max(errs)


@dataclass
class _Reference:
    """Untiled results for one (L, C), computed on first use and shared by every r.

    The reference depends only on the inputs, not on the chunk count. None
    means it raised, which fails every case of the shape that needs it.
    """

    q: DenseTensor
    k: DenseTensor
    v: DenseTensor
    do: DenseTensor

    @cached_property
    def forward(self):
        """(O, P) of ``naive_forward``, or None."""
        try:
            return naive_forward(self.q, self.k, self.v)
        except FlashwinError:
            return None

    @cached_property
    def grads(self):
        """(dQ, dK, dV) of ``naive_backward``, or None."""
        if self.forward is None:
            return None
        try:
            return naive_backward(self.q, self.k, self.v, self.forward[1], self.do)
        except FlashwinError:
            return None

    @cached_property
    def fd_grads(self):
        """Central differences of <dO, O> through the untiled forward pass.

        Each probe stacks perturbed copies of one operand; ``naive_forward``
        broadcasts the other two, and ``dot`` gives one value per copy.
        """
        q, k, v, do = self.q, self.k, self.v, self.do

        def dot(qkv):
            o = naive_forward(*qkv)[0].array
            return (do.array * o).reshape(o.shape[0], -1).sum(axis=1)

        fd_q = finite_diff_grad(lambda t: dot((t, k, v)), q, FD_STEP)
        fd_k = finite_diff_grad(lambda t: dot((q, t, v)), k, FD_STEP)
        fd_v = finite_diff_grad(lambda t: dot((q, k, t)), v, FD_STEP)
        return fd_q, fd_k, fd_v


def render_suite_table(results: list[SuiteResult]) -> str:
    """Fixed-width table, one line per case; deterministic for a given run."""
    if not results:
        return "0 cases (empty grid): vacuous pass\n"
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


@dataclass
class TrafficSummary:
    """One instrumented forward and backward run at (L, C) under ``cfg``."""

    L: int
    C: int
    cfg: TileConfig
    forward: TrafficReport
    backward: TrafficReport
    held: tuple[int, int]  # the bytes each pass left held on the arena

    @property
    def failed(self) -> list[str]:
        """The broken claims of both calls, as bench and demo name theirs."""
        calls = list(zip(_PASSES, (self.forward, self.backward), self.held))
        return _broken_claims(calls, self.L, self.C, self.cfg)


def run_traffic(
    L: int,
    C: int,
    r_value: str | int,
    elem_bytes: int,
    seed: int = DEFAULT_SEED,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
) -> TrafficSummary:
    """One window's forward and backward through the tiled path (``_tiled``), planned first."""
    plan = _plan(_PASSES, [L], [C], [r_value], elem_bytes, capacity_bytes)
    [(_, _, cfg, _)] = _fitting(plan, capacity_bytes)
    rng = Rng(seed)
    q, k, v, do = (_rand(rng, (1, 1, L, C)) for _ in range(4))
    [(*_, fwd, fwd_held), (*_, bwd, bwd_held)] = _tiled(q, k, v, do, cfg, capacity_bytes)
    return TrafficSummary(L, C, cfg, forward=fwd, backward=bwd, held=(fwd_held, bwd_held))


def render_traffic_text(s: TrafficSummary) -> str:
    fwd, bwd = (_peak(pass_, s.L, s.C, s.cfg) for pass_ in ("forward", "backward"))
    lines = [
        f"shape L={s.L} C={s.C} r={s.cfg.r} elem_bytes={s.cfg.elem_bytes}",
        f"forward  peak: {s.forward.peak_sram_bytes} B (formula {fwd} B, {fwd / 1000:.3f} kB)",
        f"backward peak: {s.backward.peak_sram_bytes} B (formula {bwd} B, {bwd / 1000:.3f} kB)",
        f"forward  loads: {_fmt_counts(s.forward.loads)}",
        f"forward  stores: {_fmt_counts(s.forward.stores)}",
        f"backward loads: {_fmt_counts(s.backward.loads)}",
        f"backward stores: {_fmt_counts(s.backward.stores)}",
        f"instrumented counts match closed form: {'NO' if s.failed else 'yes'}",
    ]
    return "\n".join(lines) + "\n"


def _fmt_counts(counts: dict[str, int]) -> str:
    return ", ".join(f"{name}={n}" for name, n in sorted(counts.items()))


def write_traffic_csv(s: TrafficSummary, out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pass", "operand", "loads", "stores"])
    for pass_, rep in (("fwd", s.forward), ("bwd", s.backward)):
        for name in sorted(set(rep.loads) | set(rep.stores)):
            writer.writerow([pass_, name, rep.loads.get(name, 0), rep.stores.get(name, 0)])


def run_bench(
    batches: Sequence[int],
    heads: int,
    L: int,
    Cs: Sequence[int],
    r_value: str | int = "auto",
    pass_: str = "fwd",
    repeats: int = 3,
    seed: int = DEFAULT_SEED,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    elem_bytes: int = 4,
) -> tuple[list[BenchRow], list[str]]:
    """Median-of-repeats timings for the untiled and tiled paths, and the broken claims.

    Timings (after one warm-up run) are informational. The run is planned first: ``_plan``'s
    rules and every footprint, then every (batch, heads, L, C) extent, are checked before any
    input is made, even beside an empty list. The tiled path is ``_tiled``, and its last
    run's calls are judged by ``_broken_claims``; a flash row merges their reports.
    """
    if repeats < 3:
        raise FlashwinError(f"repeats must be >= 3, got {repeats}")
    if pass_ not in ("fwd", "fwd_bwd"):
        raise FlashwinError(f"pass must be fwd or fwd_bwd, got {pass_!r}")
    passes = _PASSES if pass_ == "fwd_bwd" else _PASSES[:1]
    plan = _fitting(_plan(passes, [L], Cs, [r_value], elem_bytes, capacity_bytes), capacity_bytes)
    runs = [((b, heads, L, C), cfg) for b in dict.fromkeys(batches) for _, C, cfg, _ in plan]
    for shape in [shape for shape, _ in runs] + [(e,) for e in (*batches, heads)]:
        _validated(shape)  # an empty list leaves the other extents out of runs
    master = Rng(seed)
    rows: list[BenchRow] = []
    failed: list[str] = []

    for shape, cfg in runs:
        batch, C = shape[0], shape[3]
        rng = master.split()
        q, k, v = (_rand(rng, shape) for _ in range(3))
        do = _rand(rng, shape) if pass_ == "fwd_bwd" else None  # drawn after q, k and v

        # Each call's (pass, report, held bytes) only: no output outlives its call.
        run = lambda: [(p, rep, n) for p, _, rep, n in _tiled(q, k, v, do, cfg, capacity_bytes)]
        flash_ns, ran = _median_ns(run, repeats)
        naive_ns = _time_naive(q, k, v, do, repeats)
        broken = _broken_claims(ran, L, C, cfg)
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
    """The tiled path of every subcommand: per (batch, head) slice, on one arena, its forward,
    then with ``do`` its backward. Yields per call its pass, its outputs ([O] or [dQ, dK, dV]),
    its report and the bytes it left held on the arena; a caller keeps the outputs it needs.
    """
    arena = ScratchpadArena(capacity_bytes)
    for sq, sk, sv, sl_do in zip(*map(_slices, (q, k, v, do))):
        before = arena.live_bytes  # a leak is charged to the call that made it
        o, ctx, rep = flash_forward(sq, sk, sv, cfg, arena)
        yield "forward", [o], rep, arena.live_bytes - before
        if sl_do is not None:
            before = arena.live_bytes
            *grads, rep = flash_backward(ctx, sl_do, arena)
            yield "backward", grads, rep, arena.live_bytes - before


def _broken_claims(calls, L, C, cfg) -> list[str]:
    """Per pass, the failed claims of a list of (pass, report, held bytes) calls: in how many
    windows (calls) the traffic is not the closed form, each peak that is not its formula;
    then the bytes each pass's calls left held on the arena."""
    claims, held = [], {}
    for pass_ in _PASSES:
        runs = [(rep, n, *_judge(rep, pass_, L, C, cfg)) for p, rep, n in calls if p == pass_]
        if broken := sum(not traffic_ok for _, _, traffic_ok, _ in runs):
            where = f"in {broken} of {len(runs)} windows"
            claims.append(f"{pass_} loads or stores differ from the closed form {where}")
        peak = _peak(pass_, L, C, cfg)
        bad = [rep.peak_sram_bytes for rep, _, _, peak_ok in runs if not peak_ok]
        claims += [f"{pass_} peak {n} B differs from its formula {peak} B" for n in bad]
        held[pass_] = sum(n for _, n, _, _ in runs)
    claims += [f"{pass_} leaves {n} B live on the arena" for pass_, n in held.items() if n]
    return list(dict.fromkeys(claims))  # one line per distinct claim


def _median_ns(run: Callable[[], object], repeats: int) -> tuple[int, object]:
    """Median wall time of ``repeats`` calls after one warm-up call, and the last result."""
    result = run()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        result = run()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples)), result


def _time_naive(q, k, v, do, repeats):
    def run() -> None:
        for sq, sk, sv, sdo in zip(*map(_slices, (q, k, v, do))):
            _, p = naive_forward(sq, sk, sv)
            if sdo is not None:
                naive_backward(sq, sk, sv, p, sdo)

    return _median_ns(run, repeats)[0]


def _slices(t: DenseTensor | None) -> Iterable[DenseTensor | None]:
    """The (L, C) slices of a (batch, heads, L, C) tensor, in (batch, head) order; no copies.
    No tensor (None) has None for every slice."""
    if t is None:
        return repeat(None)
    return [DenseTensor._adopt(a) for a in t.array.reshape(-1, *t.shape[2:])]


def write_bench_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        writer.writerow(astuple(row))


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
    The windows run through ``_tiled`` as one (N, 1, L, C) stack, one forward call each.
    """
    cfg = WindowConfig(H=H, W=W, C=C, k=k)
    N, L = cfg.num_windows, cfg.seq_len
    plan = _plan(_PASSES[:1], [L], [C], ["auto"], elem_bytes, capacity_bytes)
    [(_, _, tile, _)] = _fitting(plan, capacity_bytes)
    rng = Rng(seed)
    x = _rand(rng, (H, W, C))
    windows = window_partition(x, cfg)

    roundtrip = max_abs_diff(x, window_reverse(windows, cfg))

    stacked = DenseTensor._adopt(windows.array.reshape(N, 1, L, C))
    calls = list(_tiled(stacked, stacked, stacked, None, tile, capacity_bytes))
    o = DenseTensor._adopt(np.stack([out.array for _, [out], _, _ in calls]))
    calls = [(pass_, rep, held) for pass_, _, rep, held in calls]  # no output kept twice
    report = merge_reports(rep for _, rep, _ in calls)
    # The reference checks the windows in stacks bounded as the finite-difference oracle's are.
    step = _stack_len(L * max(L, C))
    part = lambda t, lo: DenseTensor._adopt(t.array[lo : lo + step])
    oracle_err = _max_diff(
        (part(o, lo), naive_forward(*[part(windows, lo)] * 3)[0]) for lo in range(0, N, step)
    )
    image = window_reverse(o, cfg)
    peak = _peak("forward", L, C, tile)
    lines = [
        f"image {H}x{W}x{C}, window {k}x{k} -> {N} windows of length {L}",
        f"round_trip_max_abs_diff: {roundtrip:g}",
        f"attention output shape: {stacked.shape} -> image {image.shape}",
        f"max oracle error over {N} windows: {oracle_err:.3e}",
        f"merged loads: {_fmt_counts(report.loads)}",
        f"merged stores: {_fmt_counts(report.stores)}",
        f"per-window peak: {report.peak_sram_bytes} B (forward formula {peak} B at r={tile.r})",
    ]
    broken = _broken_claims(calls, L, C, tile)
    if not oracle_err <= ORACLE_TOL:
        broken.insert(0, f"oracle error {oracle_err:.3e} exceeds {ORACLE_TOL:g}")
    return "\n".join(lines) + "\n", broken
