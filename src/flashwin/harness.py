"""Correctness suites, traffic reports, benchmark tables, and the demo walkthrough.

Everything here is deterministic given a seed: per-case inputs come from
split child streams of one master generator, and printed tables carry no
wall-clock data (timings live in the returned records only), so identical
seeds and grids produce identical bytes.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import CapacityError, FlashwinError
from .flash import (
    FlashContext,
    TileConfig,
    batched_flash_forward,
    flash_backward,
    flash_forward,
    peak_sram_backward,
    peak_sram_forward,
)
from .memory import DEFAULT_CAPACITY_BYTES, ScratchpadArena, TrafficReport, merge_reports
from .reference import AttnParams, finite_diff_grad, naive_backward, naive_forward
from .tensor import DenseTensor, Rng, fill_uniform, max_abs_diff
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

BENCH_COLUMNS = [
    "batch",
    "heads",
    "L",
    "C",
    "r",
    "impl",
    "pass",
    "elapsed_ns",
    "peak_sram_bytes",
    "total_global_elements",
]


@dataclass
class SuiteResult:
    """Outcome of one check case; timings are kept out of the printed table."""

    case_id: str
    max_err: float
    traffic_ok: bool
    sram_ok: bool
    elapsed_ns: int
    ok: bool


@dataclass
class BenchRow:
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

    def as_csv_row(self) -> list:
        return [
            self.batch,
            self.heads,
            self.L,
            self.C,
            self.r,
            self.impl,
            self.pass_,
            self.elapsed_ns,
            self.peak_sram_bytes,
            self.total_global_elements,
        ]

    @classmethod
    def from_csv_row(cls, row: Sequence[str]) -> "BenchRow":
        return cls(
            batch=int(row[0]),
            heads=int(row[1]),
            L=int(row[2]),
            C=int(row[3]),
            r=int(row[4]),
            impl=row[5],
            pass_=row[6],
            elapsed_ns=int(row[7]),
            peak_sram_bytes=int(row[8]),
            total_global_elements=int(row[9]),
        )


def resolve_r(value: str | int, C: int) -> int:
    """Resolve a chunk-count setting; 'auto' means one chunk per 16 features."""
    if value == "auto":
        return max(1, C // 16)
    return int(value)


def expected_forward_traffic(L: int, C: int) -> tuple[dict[str, int], dict[str, int]]:
    return {"Q": L * C, "K": L * C, "V": L * C}, {"O": L * C}


def expected_backward_traffic(L: int, C: int) -> tuple[dict[str, int], dict[str, int]]:
    return (
        {"Q": 2 * L * C, "K": 2 * L * C, "V": L * C, "dO": L * C},
        {"dQ": L * C, "dK": L * C, "dV": L * C},
    )


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


def _valid_chunk_counts(C: int, r_values: Sequence[str | int]) -> list[int]:
    """Resolve and de-duplicate chunk counts that tile C features cleanly."""
    out: list[int] = []
    for value in r_values:
        r = resolve_r(value, C)
        if r in out:
            continue
        try:
            TileConfig(r=r).chunk_width(C)
        except FlashwinError:
            continue
        out.append(r)
    return out


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
    the untiled reference still succeeds.
    """
    if not Ls or not Cs or not r_values:
        return []

    results: list[SuiteResult] = []
    master = Rng(seed)

    for H, W, C, k in ROUNDTRIP_GEOMETRIES:
        t0 = time.perf_counter_ns()
        cfg = WindowConfig(H=H, W=W, C=C, k=k)
        x = _rand(master.split(), (H, W, C))
        err = max_abs_diff(x, window_reverse(window_partition(x, cfg), cfg))
        results.append(
            SuiteResult(
                case_id=f"roundtrip_{H}x{W}x{C}_k{k}",
                max_err=err,
                traffic_ok=True,
                sram_ok=True,
                elapsed_ns=time.perf_counter_ns() - t0,
                ok=err == 0.0,
            )
        )

    for L in Ls:
        for C in Cs:
            rng = master.split()
            q, k, v, do = (_rand(rng, (L, C)) for _ in range(4))
            rs = _valid_chunk_counts(C, r_values)
            fd_grads = None
            naive_ok = None
            fwd_outputs: list[DenseTensor] = []
            bwd_grads: list[tuple[DenseTensor, DenseTensor, DenseTensor]] = []

            for r in rs:
                cfg = TileConfig(r=r, elem_bytes=elem_bytes)
                if peak_sram_forward(L, C, cfg) > capacity_bytes:
                    if naive_ok is None:
                        naive_ok = _naive_succeeds(q, k, v)
                    results.append(
                        _capacity_case(L, C, r, q, k, v, cfg, capacity_bytes, naive_ok)
                    )
                    continue

                results.append(
                    _forward_case(L, C, r, q, k, v, cfg, capacity_bytes, fwd_outputs)
                )
                if peak_sram_backward(L, C, cfg) > capacity_bytes:
                    results.append(
                        _capacity_backward_case(L, C, r, q, k, v, do, cfg, capacity_bytes)
                    )
                    continue
                results.append(
                    _backward_case(
                        L, C, r, q, k, v, do, cfg, capacity_bytes, bwd_grads
                    )
                )
                if L * C <= 256:
                    if fd_grads is None:
                        fd_grads = _finite_diff_grads(q, k, v, do)
                    results.append(
                        _gradient_case(L, C, r, fd_grads, bwd_grads[-1])
                    )

            if len(fwd_outputs) >= 2:
                results.append(_invariance_case(L, C, fwd_outputs, bwd_grads))

    return results


def _naive_succeeds(q, k, v) -> bool:
    """Whether the untiled reference runs; it depends only on the inputs, not on r."""
    try:
        naive_forward(q, k, v)
    except FlashwinError:
        return False
    return True


def _capacity_case(L, C, r, q, k, v, cfg, capacity_bytes, naive_ok) -> SuiteResult:
    """Footprint exceeds the budget: the kernel must refuse, the oracle must not."""
    t0 = time.perf_counter_ns()
    refused = False
    try:
        flash_forward(q, k, v, cfg, ScratchpadArena(capacity_bytes))
    except CapacityError:
        refused = True
    return SuiteResult(
        case_id=f"capacity_fwd_L{L}_C{C}_r{r}",
        max_err=0.0,
        traffic_ok=True,
        sram_ok=refused,
        elapsed_ns=time.perf_counter_ns() - t0,
        ok=refused and naive_ok,
    )


def _capacity_backward_case(L, C, r, q, k, v, do, cfg, capacity_bytes) -> SuiteResult:
    t0 = time.perf_counter_ns()
    _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena(capacity_bytes))
    refused = False
    try:
        flash_backward(ctx, do, ScratchpadArena(capacity_bytes))
    except CapacityError:
        refused = True
    return SuiteResult(
        case_id=f"capacity_bwd_L{L}_C{C}_r{r}",
        max_err=0.0,
        traffic_ok=True,
        sram_ok=refused,
        elapsed_ns=time.perf_counter_ns() - t0,
        ok=refused,
    )


def _forward_case(L, C, r, q, k, v, cfg, capacity_bytes, fwd_outputs) -> SuiteResult:
    t0 = time.perf_counter_ns()
    arena = ScratchpadArena(capacity_bytes)
    o_flash, _, report = flash_forward(q, k, v, cfg, arena)
    o_naive, _ = naive_forward(q, k, v)
    err = max_abs_diff(o_flash, o_naive)
    exp_loads, exp_stores = expected_forward_traffic(L, C)
    traffic_ok = report.loads == exp_loads and report.stores == exp_stores
    sram_ok = (
        report.peak_sram_bytes == peak_sram_forward(L, C, cfg)
        and arena.live_bytes == 0
    )
    fwd_outputs.append(o_flash)
    return SuiteResult(
        case_id=f"fwd_L{L}_C{C}_r{r}",
        max_err=err,
        traffic_ok=traffic_ok,
        sram_ok=sram_ok,
        elapsed_ns=time.perf_counter_ns() - t0,
        ok=err <= ORACLE_TOL and traffic_ok and sram_ok,
    )


def _backward_case(L, C, r, q, k, v, do, cfg, capacity_bytes, bwd_grads) -> SuiteResult:
    t0 = time.perf_counter_ns()
    _, ctx, _ = flash_forward(q, k, v, cfg, ScratchpadArena(capacity_bytes))
    arena = ScratchpadArena(capacity_bytes)
    dq, dk, dv, report = flash_backward(ctx, do, arena)
    _, cache = naive_forward(q, k, v)
    ndq, ndk, ndv = naive_backward(q, k, v, cache, do)
    err = max(max_abs_diff(dq, ndq), max_abs_diff(dk, ndk), max_abs_diff(dv, ndv))
    exp_loads, exp_stores = expected_backward_traffic(L, C)
    traffic_ok = report.loads == exp_loads and report.stores == exp_stores
    sram_ok = (
        report.peak_sram_bytes == peak_sram_backward(L, C, cfg)
        and arena.live_bytes == 0
    )
    bwd_grads.append((dq, dk, dv))
    return SuiteResult(
        case_id=f"bwd_L{L}_C{C}_r{r}",
        max_err=err,
        traffic_ok=traffic_ok,
        sram_ok=sram_ok,
        elapsed_ns=time.perf_counter_ns() - t0,
        ok=err <= ORACLE_TOL and traffic_ok and sram_ok,
    )


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


def _gradient_case(L, C, r, fd_grads, flash_grads) -> SuiteResult:
    t0 = time.perf_counter_ns()
    err = max(max_abs_diff(a, b) for a, b in zip(flash_grads, fd_grads))
    return SuiteResult(
        case_id=f"grad_L{L}_C{C}_r{r}",
        max_err=err,
        traffic_ok=True,
        sram_ok=True,
        elapsed_ns=time.perf_counter_ns() - t0,
        ok=err <= GRAD_TOL,
    )


def _invariance_case(L, C, fwd_outputs, bwd_grads) -> SuiteResult:
    t0 = time.perf_counter_ns()
    err = 0.0
    for other in fwd_outputs[1:]:
        err = max(err, max_abs_diff(fwd_outputs[0], other))
    for other in bwd_grads[1:]:
        for a, b in zip(bwd_grads[0], other):
            err = max(err, max_abs_diff(a, b))
    return SuiteResult(
        case_id=f"chunkinv_L{L}_C{C}",
        max_err=err,
        traffic_ok=True,
        sram_ok=True,
        elapsed_ns=time.perf_counter_ns() - t0,
        ok=err <= ORACLE_TOL,
    )


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
    L: int
    C: int
    r: int
    elem_bytes: int
    forward: TrafficReport
    backward: TrafficReport
    forward_peak_formula: int
    backward_peak_formula: int

    @property
    def consistent(self) -> bool:
        exp_fl, exp_fs = expected_forward_traffic(self.L, self.C)
        exp_bl, exp_bs = expected_backward_traffic(self.L, self.C)
        return (
            self.forward.loads == exp_fl
            and self.forward.stores == exp_fs
            and self.backward.loads == exp_bl
            and self.backward.stores == exp_bs
            and self.forward.peak_sram_bytes == self.forward_peak_formula
            and self.backward.peak_sram_bytes == self.backward_peak_formula
        )


def run_traffic(
    L: int,
    C: int,
    r: int,
    elem_bytes: int,
    seed: int = DEFAULT_SEED,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
) -> TrafficSummary:
    """Instrument one forward and one backward run at the given shape."""
    cfg = TileConfig(r=r, elem_bytes=elem_bytes)
    rng = Rng(seed)
    q, k, v, do = (_rand(rng, (L, C)) for _ in range(4))
    _, ctx, fwd = flash_forward(q, k, v, cfg, ScratchpadArena(capacity_bytes))
    _, _, _, bwd = flash_backward(ctx, do, ScratchpadArena(capacity_bytes))
    return TrafficSummary(
        L=L,
        C=C,
        r=r,
        elem_bytes=elem_bytes,
        forward=fwd,
        backward=bwd,
        forward_peak_formula=peak_sram_forward(L, C, cfg),
        backward_peak_formula=peak_sram_backward(L, C, cfg),
    )


def render_traffic_text(s: TrafficSummary) -> str:
    lines = [
        f"shape L={s.L} C={s.C} r={s.r} elem_bytes={s.elem_bytes}",
        f"forward  peak: {s.forward.peak_sram_bytes} B (formula {s.forward_peak_formula} B,"
        f" {s.forward_peak_formula / 1000:.3f} kB)",
        f"backward peak: {s.backward.peak_sram_bytes} B (formula {s.backward_peak_formula} B,"
        f" {s.backward_peak_formula / 1000:.3f} kB)",
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
) -> list[BenchRow]:
    """Median-of-repeats timings for the untiled and tiled paths.

    One warm-up run precedes the timed repeats. Timings are informational:
    nothing here asserts a speedup.
    """
    if repeats < 3:
        raise FlashwinError(f"repeats must be >= 3, got {repeats}")
    if pass_ not in ("fwd", "fwd_bwd"):
        raise FlashwinError(f"pass must be fwd or fwd_bwd, got {pass_!r}")
    master = Rng(seed)
    rows: list[BenchRow] = []

    for batch in batches:
        for C in Cs:
            r = resolve_r(r_value, C)
            cfg = TileConfig(r=r, elem_bytes=elem_bytes)
            rng = master.split()
            shape = (batch, heads, L, C)
            q, k, v, do = (_rand(rng, shape) for _ in range(4))

            flash_ns, flash_traffic, flash_peak = _time_flash(
                q, k, v, do, cfg, pass_, repeats, capacity_bytes
            )
            naive_ns = _time_naive(q, k, v, do, pass_, repeats)
            rows.append(
                BenchRow(
                    batch=batch,
                    heads=heads,
                    L=L,
                    C=C,
                    r=r,
                    impl="naive",
                    pass_=pass_,
                    elapsed_ns=naive_ns,
                    peak_sram_bytes=0,
                    total_global_elements=batch * heads * naive_total_elements(L, C, pass_),
                )
            )
            rows.append(
                BenchRow(
                    batch=batch,
                    heads=heads,
                    L=L,
                    C=C,
                    r=r,
                    impl="flash",
                    pass_=pass_,
                    elapsed_ns=flash_ns,
                    peak_sram_bytes=flash_peak,
                    total_global_elements=flash_traffic,
                )
            )

    rows.sort(key=lambda b: (b.batch, b.heads, b.L, b.C, b.r, b.impl, b.pass_))
    return rows


def _time_flash(q, k, v, do, cfg, pass_, repeats, capacity_bytes):
    B, h = q.shape[:2]
    merged: TrafficReport | None = None

    def run() -> TrafficReport:
        arena = ScratchpadArena(capacity_bytes)
        out, contexts, rep = batched_flash_forward(q, k, v, cfg, [arena])
        reports = [rep]
        if pass_ == "fwd_bwd":
            for b in range(B):
                for head in range(h):
                    sl_do = DenseTensor._adopt(do.array[b, head])
                    *_, bwd_rep = flash_backward(contexts[b][head], sl_do, arena)
                    reports.append(bwd_rep)
        return merge_reports(reports)

    run()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        merged = run()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples)), merged.total_elements(), merged.peak_sram_bytes


def _time_naive(q, k, v, do, pass_, repeats):
    B, h = q.shape[:2]

    def run() -> None:
        for b in range(B):
            for head in range(h):
                sq = DenseTensor._adopt(q.array[b, head])
                sk = DenseTensor._adopt(k.array[b, head])
                sv = DenseTensor._adopt(v.array[b, head])
                _, cache = naive_forward(sq, sk, sv)
                if pass_ == "fwd_bwd":
                    sdo = DenseTensor._adopt(do.array[b, head])
                    naive_backward(sq, sk, sv, cache, sdo)

    run()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        run()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def write_bench_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_row())


def run_demo(
    H: int,
    W: int,
    C: int,
    k: int,
    seed: int = DEFAULT_SEED,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    elem_bytes: int = 4,
) -> str:
    """Partition -> per-window attention -> reverse walkthrough, as text."""
    cfg = WindowConfig(H=H, W=W, C=C, k=k)
    r = resolve_r("auto", C)
    tile = TileConfig(r=r, elem_bytes=elem_bytes)
    rng = Rng(seed)
    x = _rand(rng, (H, W, C))
    windows = window_partition(x, cfg)
    N, L = cfg.num_windows, cfg.seq_len

    roundtrip = max_abs_diff(x, window_reverse(windows, cfg))

    stacked = DenseTensor((N, 1, L, C), windows.array)
    out, _, report = batched_flash_forward(
        stacked, stacked, stacked, tile, [ScratchpadArena(capacity_bytes)]
    )

    oracle_err = 0.0
    for n in range(N):
        w = DenseTensor((L, C), windows.array[n])
        o_ref, _ = naive_forward(w, w, w)
        oracle_err = max(
            oracle_err, max_abs_diff(DenseTensor((L, C), out.array[n, 0]), o_ref)
        )

    image = window_reverse(DenseTensor((N, L, C), out.array), cfg)
    lines = [
        f"image {H}x{W}x{C}, window {k}x{k} -> {N} windows of length {L}",
        f"round_trip_max_abs_diff: {roundtrip:g}",
        f"attention output shape: {out.shape} -> image {image.shape}",
        f"max oracle error over {N} windows: {oracle_err:.3e}",
        f"merged loads: {_fmt_counts(report.loads)}",
        f"merged stores: {_fmt_counts(report.stores)}",
        f"per-window peak: {report.peak_sram_bytes} B "
        f"(forward formula {peak_sram_forward(L, C, tile)} B at r={r})",
    ]
    return "\n".join(lines) + "\n"
