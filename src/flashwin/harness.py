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
from typing import IO, Callable, Sequence

from .errors import CapacityError, FlashwinError, ShapeError
from .flash import (
    TileConfig,
    batched_flash_forward,
    flash_backward,
    flash_forward,
    peak_sram_backward,
    peak_sram_forward,
)
from .memory import DEFAULT_CAPACITY_BYTES, ScratchpadArena, TrafficReport, merge_reports
from .memory import _checked_capacity  # the arena's capacity rule, without an arena
from .reference import FD_STACK_ELEMS, finite_diff_grad, naive_backward, naive_forward
from .tensor import DenseTensor, Rng, _validated, fill_uniform, max_abs_diff
from .windowing import WindowConfig, window_partition, window_reverse

ORACLE_TOL = 1e-10
GRAD_TOL = 1e-6
FD_STEP = 1e-5
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


def _judge(report, pass_, L, C, cfg, windows=1) -> tuple[bool, bool]:
    """(traffic_ok, peak_ok): a ``pass_`` report of ``windows`` windows against the closed forms."""
    traffic, peak = _CONTRACT[pass_](L, C, cfg)
    want = [{name: n * windows for name, n in counts.items()} for counts in traffic]
    return [report.loads, report.stores] == want, report.peak_sram_bytes == peak


def _peak(pass_: str, L: int, C: int, cfg: TileConfig) -> int:
    return _CONTRACT[pass_](L, C, cfg)[1]


def _plan(passes, L, Cs, r_value, elem_bytes, capacity_bytes) -> dict[int, TileConfig]:
    """Each C's tiling for a run that makes ``passes`` in order at every (L, C), before any input.

    Applies the arena's capacity rule, then per C the chunk-count and extent rules and each
    pass's closed-form peak, in run order; the first pass that does not fit is refused.
    """
    capacity_bytes = _checked_capacity(capacity_bytes)
    cfgs = {C: TileConfig(resolve_r(r_value, C), elem_bytes=elem_bytes) for C in dict.fromkeys(Cs)}
    for C, cfg in cfgs.items():
        for pass_ in passes:
            need = _peak(pass_, L, C, cfg)  # applies the extent and chunk-count rules
            if need > capacity_bytes:
                msg = f"{pass_} pass at L={L}, C={C} needs {need} bytes of scratchpad"
                raise CapacityError(f"{msg}, capacity is {capacity_bytes}")
    return cfgs


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


def _grid(
    Ls: Sequence[int], Cs: Sequence[int], r_values: Sequence[str | int]
) -> list[tuple[int, int, list[int]]]:
    """The (L, C, chunk counts) points of a check grid, in the order asked for.

    Each L and each C appears once, and each C carries its resolved,
    de-duplicated chunk counts, so no case runs twice. An L or C below 1
    fails the tensor extent rule. Every chunk count from 1 to C tiles C;
    one that exceeds C is skipped for that C, and one that exceeds every C
    raises :class:`ShapeError` naming it, so a grid cannot pass without
    running the kernels it asked for.
    """
    points = [_validated((L, C)) for L in dict.fromkeys(Ls) for C in dict.fromkeys(Cs)]
    counts: dict[int, list[int]] = {C: [] for C in Cs}
    for value in r_values:
        resolved = {C: resolve_r(value, C) for C in counts}
        if all(r > C for C, r in resolved.items()):
            raise ShapeError(f"chunk count {value} exceeds every feature count {list(Cs)}")
        for C, r in resolved.items():
            if r <= C and r not in counts[C]:
                counts[C].append(r)
    return [(L, C, counts[C]) for L, C in points]


def run_check_suite(
    seed: int,
    Ls: Sequence[int],
    Cs: Sequence[int],
    r_values: Sequence[str | int],
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    elem_bytes: int = 4,
) -> list[SuiteResult]:
    """Run oracle, gradient, round-trip, traffic, and occupancy checks.

    Grid points whose closed-form footprint exceeds the capacity become
    expected-error cases: they pass when the kernel refuses to run while
    the untiled reference still succeeds. The untiled reference runs at
    most once per (L, C) and is shared by every chunk count. The capacity
    and the whole grid are checked before the first case runs.
    """
    _checked_capacity(capacity_bytes)
    if not Ls or not Cs or not r_values:
        return []

    grid = _grid(Ls, Cs, r_values)
    results: list[SuiteResult] = []
    master = Rng(seed)

    for H, W, C, k in ROUNDTRIP_GEOMETRIES:
        cfg = WindowConfig(H=H, W=W, C=C, k=k)
        x = _rand(master.split(), (H, W, C))
        err = max_abs_diff(x, window_reverse(window_partition(x, cfg), cfg))
        results.append(_result(f"roundtrip_{H}x{W}x{C}_k{k}", err, tol=0.0))

    for L, C, rs in grid:
        rng = master.split()
        q, k, v, do = (_rand(rng, (L, C)) for _ in range(4))
        ref = _Reference(q, k, v, do)
        fd_grads = None
        # Outputs of each chunk count, for the chunk-count invariance case.
        fwd_runs: list[Sequence[DenseTensor]] = []
        bwd_runs: list[Sequence[DenseTensor]] = []

        for r in rs:
            tag = f"L{L}_C{C}_r{r}"
            cfg = TileConfig(r=r, elem_bytes=elem_bytes)
            if _peak("forward", L, C, cfg) > capacity_bytes:
                refused = _refuses(flash_forward, q, k, v, cfg, ScratchpadArena(capacity_bytes))
                err = math.inf if ref.forward is None else 0.0
                results.append(_result(f"capacity_fwd_{tag}", err, sram_ok=refused))
                continue

            arena = ScratchpadArena(capacity_bytes)
            o, ctx, rep = flash_forward(q, k, v, cfg, arena)
            fwd_runs.append((o,))
            want = None if ref.forward is None else ref.forward[:1]
            results.append(_kernel_case(f"fwd_{tag}", (o,), want, rep, arena, "forward", cfg))

            if _peak("backward", L, C, cfg) > capacity_bytes:
                refused = _refuses(flash_backward, ctx, do, ScratchpadArena(capacity_bytes))
                results.append(_result(f"capacity_bwd_{tag}", 0.0, sram_ok=refused))
                continue

            arena = ScratchpadArena(capacity_bytes)
            *grads, rep = flash_backward(ctx, do, arena)
            bwd_runs.append(grads)
            case = _kernel_case(f"bwd_{tag}", grads, ref.grads, rep, arena, "backward", cfg)
            results.append(case)
            if L * C <= 256:
                if fd_grads is None:
                    fd_grads = _finite_diff_grads(q, k, v, do)
                err = _max_diff(grads, fd_grads)
                results.append(_result(f"grad_{tag}", err, tol=GRAD_TOL))

        if len(fwd_runs) >= 2:
            err = max(
                _max_diff(runs[0], run) for runs in (fwd_runs, bwd_runs) for run in runs[1:]
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


def _kernel_case(case_id, got, want, report, arena, pass_, cfg) -> SuiteResult:
    """Outputs (each L x C) against the shared reference's (None: it raised), report judged."""
    err = math.inf if want is None else _max_diff(got, want)
    traffic_ok, peak_ok = _judge(report, pass_, *got[0].shape, cfg)
    return _result(case_id, err, traffic_ok=traffic_ok, sram_ok=peak_ok and arena.live_bytes == 0)


def _refuses(kernel, *args) -> bool:
    """Whether the kernel raises CapacityError on these arguments."""
    try:
        kernel(*args)
    except CapacityError:
        return True
    return False


def _max_diff(got: Sequence[DenseTensor], want: Sequence[DenseTensor]) -> float:
    return max(max_abs_diff(a, b) for a, b in zip(got, want))


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


def _finite_diff_grads(q, k, v, do):
    """Central differences of <dO, O> through the untiled forward pass.

    Each probe stacks perturbed copies of one operand; ``naive_forward``
    broadcasts the other two, and ``dot`` gives one value per copy.
    """

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

    @property
    def consistent(self) -> bool:
        reports = {"forward": self.forward, "backward": self.backward}
        return all(all(_judge(rep, p, self.L, self.C, self.cfg)) for p, rep in reports.items())


def run_traffic(
    L: int,
    C: int,
    r_value: str | int,
    elem_bytes: int,
    seed: int = DEFAULT_SEED,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
) -> TrafficSummary:
    """Instrument one forward and one backward run at the given shape, planned first."""
    cfg = _plan(("forward", "backward"), L, [C], r_value, elem_bytes, capacity_bytes)[C]
    rng = Rng(seed)
    q, k, v, do = (_rand(rng, (L, C)) for _ in range(4))
    _, ctx, fwd = flash_forward(q, k, v, cfg, ScratchpadArena(capacity_bytes))
    _, _, _, bwd = flash_backward(ctx, do, ScratchpadArena(capacity_bytes))
    return TrafficSummary(L=L, C=C, cfg=cfg, forward=fwd, backward=bwd)


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
        f"instrumented counts match closed form: {'yes' if s.consistent else 'NO'}",
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

    Timings (after one warm-up run) are informational. The run is planned first: the
    capacity, every chunk count, every footprint and every (batch, heads, L, C) extent are
    checked before any input is made. Each pass is judged on its own report, the batched
    forward's and then each backward call's; a flash row shows their merged peak and totals.
    """
    if repeats < 3:
        raise FlashwinError(f"repeats must be >= 3, got {repeats}")
    if pass_ not in ("fwd", "fwd_bwd"):
        raise FlashwinError(f"pass must be fwd or fwd_bwd, got {pass_!r}")
    passes = ("forward", "backward") if pass_ == "fwd_bwd" else ("forward",)
    cfgs = _plan(passes, L, Cs, r_value, elem_bytes, capacity_bytes)
    shapes = [_validated((batch, heads, L, C)) for batch in dict.fromkeys(batches) for C in cfgs]
    master = Rng(seed)
    rows: list[BenchRow] = []
    failed: list[str] = []

    for shape in shapes:
        batch, C, cfg = shape[0], shape[3], cfgs[shape[3]]
        rng = master.split()
        q, k, v, do = (_rand(rng, shape) for _ in range(4))

        flash_ns, (fwd, *bwds) = _time_flash(q, k, v, do, cfg, pass_, repeats, capacity_bytes)
        naive_ns = _time_naive(q, k, v, do, pass_, repeats)
        broken = _broken_claims("forward", [fwd], batch * heads, L, C, cfg)
        broken += _broken_claims("backward", bwds, 1, L, C, cfg)
        failed += [f"bench batch={batch} C={C}: {claim}" for claim in broken]
        merged = merge_reports([fwd, *bwds])
        for impl, ns, peak, elements in (
            ("naive", naive_ns, 0, batch * heads * naive_total_elements(L, C, pass_)),
            ("flash", flash_ns, merged.peak_sram_bytes, merged.total_elements()),
        ):
            rows.append(BenchRow(batch, heads, L, C, cfg.r, impl, pass_, ns, peak, elements))

    rows.sort(key=lambda b: (b.batch, b.heads, b.L, b.C, b.r, b.impl, b.pass_))
    return rows, failed


def _broken_claims(pass_, reports, windows, L, C, cfg) -> list[str]:
    """Failed claims of ``pass_``'s reports, each judged on its own as ``windows`` windows."""
    n, peak = windows * len(reports), _peak(pass_, L, C, cfg)
    claims = []
    for rep in reports:
        traffic_ok, peak_ok = _judge(rep, pass_, L, C, cfg, windows)
        if not traffic_ok:
            claims.append(f"{pass_} loads or stores differ from {n} windows x the closed form")
        if not peak_ok:
            claims.append(f"{pass_} peak {rep.peak_sram_bytes} B differs from its formula {peak} B")
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


def _time_flash(q, k, v, do, cfg, pass_, repeats, capacity_bytes):
    """Median time of the tiled path, and its last run's reports unmerged, each judged alone."""

    def run() -> list[TrafficReport]:
        arena = ScratchpadArena(capacity_bytes)
        _, contexts, rep = batched_flash_forward(q, k, v, cfg, [arena])
        reports = [rep]
        if pass_ == "fwd_bwd":
            for ctx, sl_do in zip((c for row in contexts for c in row), _slices(do)):
                reports.append(flash_backward(ctx, sl_do, arena)[-1])
        return reports

    return _median_ns(run, repeats)


def _time_naive(q, k, v, do, pass_, repeats):
    def run() -> None:
        for sq, sk, sv, sdo in zip(*(_slices(t) for t in (q, k, v, do))):
            _, p = naive_forward(sq, sk, sv)
            if pass_ == "fwd_bwd":
                naive_backward(sq, sk, sv, p, sdo)

    return _median_ns(run, repeats)[0]


def _slices(t: DenseTensor) -> list[DenseTensor]:
    """The (L, C) slices of a (batch, heads, L, C) tensor, in (batch, head) order; no copies."""
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
    """
    cfg = WindowConfig(H=H, W=W, C=C, k=k)
    N, L = cfg.num_windows, cfg.seq_len
    tile = _plan(("forward",), L, [C], "auto", elem_bytes, capacity_bytes)[C]
    rng = Rng(seed)
    x = _rand(rng, (H, W, C))
    windows = window_partition(x, cfg)

    roundtrip = max_abs_diff(x, window_reverse(windows, cfg))

    stacked = DenseTensor._adopt(windows.array.reshape(N, 1, L, C))
    arenas = [ScratchpadArena(capacity_bytes)]
    out, _, report = batched_flash_forward(stacked, stacked, stacked, tile, arenas)

    o = DenseTensor._adopt(out.array.reshape(N, L, C))
    # The reference checks the windows in stacks whose (m, L, L) weights and
    # (m, L, C) outputs stay within FD_STACK_ELEMS elements, as the
    # finite-difference oracle's do, so the weights of every window are
    # never live at once.
    step = max(1, FD_STACK_ELEMS // (L * max(L, C)))
    oracle_err = 0.0
    for lo in range(0, N, step):
        w = DenseTensor._adopt(windows.array[lo : lo + step])
        got = DenseTensor._adopt(o.array[lo : lo + step])
        oracle_err = max(oracle_err, max_abs_diff(got, naive_forward(w, w, w)[0]))
    image = window_reverse(o, cfg)
    peak = _peak("forward", L, C, tile)
    lines = [
        f"image {H}x{W}x{C}, window {k}x{k} -> {N} windows of length {L}",
        f"round_trip_max_abs_diff: {roundtrip:g}",
        f"attention output shape: {out.shape} -> image {image.shape}",
        f"max oracle error over {N} windows: {oracle_err:.3e}",
        f"merged loads: {_fmt_counts(report.loads)}",
        f"merged stores: {_fmt_counts(report.stores)}",
        f"per-window peak: {report.peak_sram_bytes} B (forward formula {peak} B at r={tile.r})",
    ]
    broken = _broken_claims("forward", [report], N, L, C, tile)
    if not oracle_err <= ORACLE_TOL:
        broken.insert(0, f"oracle error {oracle_err:.3e} exceeds {ORACLE_TOL:g}")
    return "\n".join(lines) + "\n", broken
