"""Harness behavior: suite determinism, CSV schema, CLI exit codes."""

import csv
import io
import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace

import pytest

from flashwin import (
    DenseTensor,
    InvalidRangeError,
    NumericsError,
    ShapeError,
    TileConfig,
    TrafficReport,
    cli,
    harness,
    reference,
)
from flashwin.cli import main
from flashwin.harness import (
    BENCH_COLUMNS,
    naive_total_elements,
    render_suite_table,
    render_traffic_text,
    resolve_r,
    run_bench,
    run_check_suite,
    run_demo,
    run_traffic,
    write_bench_csv,
    write_traffic_csv,
)

SMALL_GRID = dict(Ls=[2, 8], Cs=[16], r_values=[1, 2, "auto"])


class TestCheckSuite:
    def test_default_style_grid_passes(self):
        results = run_check_suite(seed=42, **SMALL_GRID)
        assert results and all(r.ok for r in results)
        assert len({r.case_id for r in results}) == len(results)

    def test_table_is_deterministic_across_runs(self):
        a = render_suite_table(run_check_suite(seed=7, **SMALL_GRID))
        b = render_suite_table(run_check_suite(seed=7, **SMALL_GRID))
        assert a == b

    def test_different_seed_changes_inputs_not_verdicts(self):
        results = run_check_suite(seed=31337, **SMALL_GRID)
        assert all(r.ok for r in results)

    def test_empty_grid_is_a_vacuous_pass(self):
        assert run_check_suite(seed=42, Ls=[], Cs=[16], r_values=[1]) == []
        assert "vacuous" in render_suite_table([])

    def test_oversized_sequence_becomes_expected_error_case(self):
        results = run_check_suite(seed=42, Ls=[1024], Cs=[32], r_values=[2])
        capacity_cases = [r for r in results if r.case_id.startswith("capacity_")]
        assert capacity_cases and all(r.ok for r in capacity_cases)

    def test_refusals_share_one_reference_run_per_shape(self, monkeypatch):
        # The 64x64 scores alone need 16384 bytes, so every r is a refusal.
        calls = []
        real = harness.naive_forward

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "naive_forward", counted)
        grid = dict(Ls=[64], Cs=[16, 32], r_values=[1, 2, 4], capacity_bytes=16000)
        results = run_check_suite(seed=42, **grid)
        assert [r.case_id for r in results if not r.case_id.startswith("roundtrip_")] == [
            f"capacity_fwd_L64_C{C}_r{r}" for C, rs in ((16, (1, 2, 4)), (32, (1, 2, 4))) for r in rs
        ]
        assert all(r.ok for r in results)
        assert calls == [(64, 16), (64, 32)]

    # 16000 B refuses every forward; at 50000 B only the backward of C=64, r=1 (65536 B).
    @pytest.mark.parametrize(
        "broken, grid, prefix, cases",
        [("naive_forward", dict(Cs=[16, 32], r_values=[1, 2, 4], capacity_bytes=16000),
          "capacity_fwd_", 6),
         ("naive_backward", dict(Cs=[64], r_values=[1], capacity_bytes=50000), "capacity_bwd_", 1)],
        ids=["forward", "backward"],
    )
    def test_refusal_fails_when_shared_reference_run_fails(
        self, monkeypatch, broken, grid, prefix, cases
    ):
        def raising(*args, **kwargs):
            raise NumericsError("reference failed")

        monkeypatch.setattr(harness, broken, raising)
        results = run_check_suite(seed=42, Ls=[64], **grid)
        capacity = [r for r in results if r.case_id.startswith(prefix)]
        assert len(capacity) == cases
        assert not any(r.ok for r in capacity)
        assert all(r.sram_ok for r in capacity)  # the kernel still refused
        assert all(r.max_err == float("inf") for r in capacity)

    # L*C > 256 keeps the finite-difference oracle, which also runs the
    # untiled forward, out of these grids.
    KERNEL_GRID = dict(Ls=[16], Cs=[32, 64], r_values=[1, 2, 4])

    def test_kernel_cases_share_one_reference_run_per_shape(self, monkeypatch):
        calls = []
        for module, name in ((harness, "naive_forward"), (harness, "naive_backward"),
                             (harness, "flash_forward")):

            def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls.append((_name, args[0].shape))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        results = run_check_suite(seed=42, **self.KERNEL_GRID)
        assert sum(r.case_id.startswith(("fwd_", "bwd_")) for r in results) == 12
        assert all(r.ok for r in results)
        # One forward and one backward reference per (L, C); the backward
        # cases reuse their forward case's context instead of a second forward.
        assert Counter(calls) == {
            call: n
            for C in (32, 64)
            for call, n in [
                (("naive_forward", (16, C)), 1),
                (("naive_backward", (16, C)), 1),
                (("flash_forward", (16, C)), 3),
            ]
        }

    @pytest.mark.parametrize("broken", ["naive_forward", "naive_backward"])
    def test_kernel_cases_fail_when_shared_reference_fails(self, monkeypatch, broken):
        def raising(*args, **kwargs):
            raise NumericsError("reference failed")

        monkeypatch.setattr(harness, broken, raising)
        results = run_check_suite(seed=42, **self.KERNEL_GRID)
        fwd = [r for r in results if r.case_id.startswith("fwd_")]
        bwd = [r for r in results if r.case_id.startswith("bwd_")]
        assert len(fwd) == len(bwd) == 6
        assert all(r.traffic_ok and r.sram_ok for r in fwd + bwd)  # the kernels still ran
        assert not any(r.ok for r in bwd)
        assert all(r.ok for r in fwd) == (broken == "naive_backward")
        assert all(r.ok for r in results if not r.case_id.startswith(("fwd_", "bwd_")))

    def test_gradient_oracle_memory_stays_bounded(self):
        # One copy's scores are 256x256: the stacked oracle must not stack many.
        tracemalloc.start()
        try:
            results = run_check_suite(
                seed=42, Ls=[256], Cs=[1], r_values=[1], capacity_bytes=1000000
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "grad_L256_C1_r1" in {r.case_id for r in results}
        assert all(r.ok for r in results)
        assert peak < 40e6

    def test_gradient_cases_only_on_small_shapes(self):
        results = run_check_suite(seed=42, Ls=[2, 64], Cs=[16], r_values=[2])
        ids = {r.case_id for r in results}
        assert "grad_L2_C16_r2" in ids
        assert not any(i.startswith("grad_L64") for i in ids)

    def test_chunk_counts_above_a_feature_count_are_skipped(self):
        # 8 chunks exceed C=4: skipped for C=4 only. 3 chunks tile both.
        results = run_check_suite(seed=42, Ls=[4], Cs=[4, 16], r_values=[1, 3, 8])
        ids = {r.case_id for r in results}
        assert {"fwd_L4_C4_r1", "fwd_L4_C4_r3", "fwd_L4_C16_r3", "fwd_L4_C16_r8"} <= ids
        assert not any("C4_r8" in i for i in ids)
        assert all(r.ok for r in results)

    def test_repeated_lengths_and_feature_counts_run_once(self, capsys):
        assert main(["check", "--L", "2", "--C", "16,16", "--r", "1,1"]) == 0
        repeated = capsys.readouterr().out
        assert main(["check", "--L", "2,2", "--C", "16", "--r", "1"]) == 0
        assert capsys.readouterr().out == repeated
        assert main(["check", "--L", "2", "--C", "16", "--r", "1"]) == 0
        assert capsys.readouterr().out == repeated
        ids = [line.split()[0] for line in repeated.splitlines()[1:-1]]
        assert len(ids) == len(set(ids)) == 8
        assert repeated.endswith("8/8 cases passed\n")

    @pytest.mark.parametrize("r_values", [[1, 3, 64], [64]])
    def test_chunk_count_above_every_feature_count_is_an_error(self, r_values):
        msg = r"^chunk count 64 exceeds every feature count \[4, 2\]$"
        with pytest.raises(ShapeError, match=msg):
            run_check_suite(seed=42, Ls=[4], Cs=[4, 2], r_values=r_values)

    @pytest.mark.parametrize("bad", [0, 2.5, 2.0, "abc"])
    def test_chunk_count_that_is_not_an_integer_above_zero_is_an_error(self, bad):
        # Refused by TileConfig's rule, not coerced: 2.5 never runs as r=2.
        with pytest.raises(InvalidRangeError, match=f"integer >= 1, got {bad}$"):
            run_check_suite(seed=42, Ls=[4], Cs=[4], r_values=[2, bad])


class TestTraffic:
    def test_summary_matches_closed_forms(self):
        s = run_traffic(L=64, C=64, r_value=4, elem_bytes=4)
        assert s.forward.peak_sram_bytes == 24576
        assert s.backward.peak_sram_bytes == 40960
        assert s.failed == []

    def test_summary_derives_its_peak_formulas_from_its_config(self):
        s = run_traffic(L=64, C=64, r_value=4, elem_bytes=4)
        assert s.cfg == TileConfig(r=4, elem_bytes=4)
        # Two chunks are 32 wide, so the formulas no longer equal the r=4 run's peaks.
        wider = replace(s, cfg=TileConfig(r=2, elem_bytes=4))
        assert wider.failed == [
            "forward peak 24576 B differs from its formula 32768 B",
            "backward peak 40960 B differs from its formula 49152 B",
        ]
        assert "r=2 elem_bytes=4" in render_traffic_text(wider)
        assert "(formula 32768 B," in render_traffic_text(wider)

    def test_text_reports_peaks(self):
        text = render_traffic_text(run_traffic(L=64, C=64, r_value=4, elem_bytes=4))
        assert "24576" in text and "40960" in text
        assert "match closed form: yes" in text

    def test_csv_has_one_row_per_operand(self):
        buf = io.StringIO()
        write_traffic_csv(run_traffic(L=8, C=16, r_value=2, elem_bytes=4), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["pass", "operand", "loads", "stores"]
        fwd = [r for r in rows[1:] if r[0] == "fwd"]
        bwd = [r for r in rows[1:] if r[0] == "bwd"]
        assert {r[1] for r in fwd} == {"Q", "K", "V", "O"}
        assert {r[1] for r in bwd} == {"Q", "K", "V", "dO", "dQ", "dK", "dV"}


class TestBench:
    def test_single_config_gives_two_rows(self):
        rows, _ = run_bench(batches=[2], heads=2, L=16, Cs=[16], repeats=3)
        assert len(rows) == 2
        assert {r.impl for r in rows} == {"naive", "flash"}

    def test_csv_schema_and_round_trip(self):
        rows, _ = run_bench(batches=[2], heads=2, L=16, Cs=[16], repeats=3)
        buf = io.StringIO()
        write_bench_csv(rows, buf)
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))
        assert parsed[0] == BENCH_COLUMNS
        assert ",".join(BENCH_COLUMNS) == (
            "batch,heads,L,C,r,impl,pass,elapsed_ns,peak_sram_bytes,total_global_elements"
        )
        assert len(parsed) == 3
        for raw, row in zip(parsed[1:], rows):
            assert raw == [str(x) for x in astuple(row)]

    def test_flash_forward_traffic_is_4lc_per_slice(self):
        rows, failed = run_bench(batches=[3], heads=2, L=8, Cs=[16], repeats=3)
        flash = next(r for r in rows if r.impl == "flash")
        assert flash.total_global_elements == 4 * 8 * 16 * 3 * 2
        assert flash.peak_sram_bytes == (8 * 8 + 2 * 8 * 16) * 4  # r=auto -> 1
        assert failed == []

    def test_fwd_bwd_pass_adds_backward_traffic(self):
        rows, failed = run_bench(batches=[2], heads=1, L=8, Cs=[16], pass_="fwd_bwd", repeats=3)
        flash = next(r for r in rows if r.impl == "flash")
        assert flash.total_global_elements == (4 + 9) * 8 * 16 * 2
        assert flash.peak_sram_bytes == (2 * 8 * 8 + 2 * 8 * 16) * 4
        assert failed == []

    def test_timings_are_positive_but_not_compared(self):
        rows, _ = run_bench(batches=[2], heads=1, L=8, Cs=[16], repeats=3)
        assert all(r.elapsed_ns > 0 for r in rows)

    def test_rows_sorted_canonically(self):
        rows, _ = run_bench(batches=[4, 2], heads=1, L=8, Cs=[32, 16], repeats=3)
        keys = [(r.batch, r.heads, r.L, r.C, r.r, r.impl, r.pass_) for r in rows]
        assert keys == sorted(keys)

    def test_too_few_repeats_rejected(self):
        from flashwin import FlashwinError

        with pytest.raises(FlashwinError):
            run_bench(batches=[2], heads=1, L=8, Cs=[16], repeats=2)


class TestHelpers:
    def test_resolve_r(self):
        assert resolve_r("auto", 64) == 4
        assert resolve_r("auto", 256) == 16
        assert resolve_r("auto", 8) == 1
        assert resolve_r(3, 64) == 3
        for bad in (0, 2.5, "abc", "3"):
            with pytest.raises(InvalidRangeError):
                resolve_r(bad, 64)

    def test_auto_tiles_every_feature_count(self):
        # With all chunks but the last ceil(C/r) wide, 3465 of these C (the first
        # is 289) had no valid auto count: the last chunk came out empty.
        for C in range(1, 4097):
            cfg = TileConfig(r=resolve_r("auto", C))
            spans = cfg.chunk_spans(C)
            widths = [hi - lo for lo, hi in spans]
            assert spans[0][0] == 0 and spans[-1][1] == C and sum(widths) == C
            assert max(widths) - min(widths) <= 1
            assert max(widths) == cfg.chunk_width(C)

    def test_naive_traffic_model(self):
        assert naive_total_elements(64, 64, "fwd") == 4 * 4096 + 4 * 4096
        assert naive_total_elements(8, 4, "fwd_bwd") == (4 * 32 + 4 * 64) + (7 * 64 + 8 * 32)


class TestDemo:
    def test_single_window_geometry(self):
        text, failed = run_demo(H=7, W=7, C=16, k=7, seed=1)
        assert "1 windows of length 49" in text
        assert "round_trip_max_abs_diff: 0" in text
        assert failed == []

    def test_makes_no_tensor_copies(self, monkeypatch):
        copies = []
        real = DenseTensor.__init__

        def counted(self, *args, **kwargs):
            copies.append(args[0])
            real(self, *args, **kwargs)

        monkeypatch.setattr(DenseTensor, "__init__", counted)
        assert "16 windows" in run_demo(H=8, W=8, C=4, k=2, seed=1)[0]
        assert copies == []

    def test_checks_windows_in_bounded_reference_stacks(self, monkeypatch):
        calls = []
        real = harness.naive_forward

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "naive_forward", counted)
        text, _ = run_demo(H=8, W=8, C=4, k=2, seed=1)
        assert "16 windows" in text
        assert calls == [(16, 4, 4)]
        calls.clear()
        monkeypatch.setattr(reference, "FD_STACK_ELEMS", 5 * 4 * 4)  # 5 windows of 4x4 weights
        assert run_demo(H=8, W=8, C=4, k=2, seed=1)[0] == text
        assert calls == [(5, 4, 4)] * 3 + [(1, 4, 4)]

    def test_never_holds_every_windows_weights_at_once(self):
        # 64 windows of L = 121: their (64, 121, 121) weights alone take 7.5 MB.
        n, L = 64, 121
        tracemalloc.start()
        try:
            run_demo(H=88, W=88, C=8, k=11, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * L * L

    def test_multi_window_geometry(self):
        text, failed = run_demo(H=28, W=28, C=32, k=7, seed=1)
        assert "16 windows" in text
        assert "Q=25088" in text  # 16 windows x 49 x 32, each element loaded once
        assert failed == []


class TestCli:
    def test_check_exits_zero_on_pass(self, capsys):
        assert main(["check", "--L", "2,8", "--C", "16", "--r", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "cases passed" in out

    def test_check_empty_grid_exits_zero(self, capsys):
        assert main(["check", "--L", ""]) == 0
        assert "0 cases" in capsys.readouterr().out

    def test_check_output_is_byte_deterministic(self, capsys):
        main(["check", "--L", "2", "--C", "16", "--r", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["check", "--L", "2", "--C", "16", "--r", "2", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_traffic_prints_text_only(self, capsys):
        assert main(["traffic", "--L", "64", "--C", "64", "--r", "4"]) == 0
        out = capsys.readouterr().out
        assert "24576" in out and "pass,operand,loads,stores" not in out
        assert out == render_traffic_text(run_traffic(L=64, C=64, r_value=4, elem_bytes=4))

    def test_traffic_mismatch_exits_one(self, monkeypatch, capsys):
        self._break_flash_forward(monkeypatch)
        assert main(["traffic", "--L", "8", "--C", "16", "--r", "2"]) == 1
        out, err = capsys.readouterr()
        assert "forward  peak: 769 B (formula 768 B," in out and "Q=129" in out
        assert out.endswith("match closed form: NO\n")
        assert err.splitlines() == [
            "forward loads or stores differ from the closed form in 1 of 1 windows",
            "forward peak 769 B differs from its formula 768 B",
        ]

    def test_traffic_writes_csv_to_out(self, tmp_path, capsys):
        path = tmp_path / "traffic.csv"
        assert main(["traffic", "--L", "8", "--C", "16", "--out", str(path)]) == 0
        assert path.read_text().startswith("pass,operand,loads,stores")
        assert "pass,operand" not in capsys.readouterr().out

    def test_bench_emits_csv(self, tmp_path):
        path = tmp_path / "bench.csv"
        code = main(
            ["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "16",
             "--repeats", "3", "--out", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(BENCH_COLUMNS)
        assert len(lines) == 3

    def test_bench_runs_each_repeated_batch_and_feature_count_once(self, tmp_path):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        common = ["--heads", "1", "--L", "8", "--repeats", "3"]
        assert main(["bench", "--batch", "2", "--C", "16", *common, "--out", str(once)]) == 0
        assert main(["bench", "--batch", "2,2", "--C", "16,16", *common, "--out", str(twice)]) == 0
        untimed = lambda path: [
            row[:7] + row[8:] for row in csv.reader(path.read_text().splitlines())
        ]
        assert untimed(twice) == untimed(once)
        assert len(untimed(twice)) == 3

    def test_bench_checks_every_chunk_count_before_making_inputs(self, monkeypatch, capsys):
        def no_inputs(*args):
            raise AssertionError("inputs made before the grid was checked")

        monkeypatch.setattr(harness, "_rand", no_inputs)
        args = ["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "32,16", "--r", "32"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: chunk count 32 exceeds feature count 16\n")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--L", "1024"], "forward pass at L=1024, C=16 needs 4325376 bytes of scratchpad, "
             "capacity is 131072"),
            # The forward (11172 B) fits; the backward does not.
            (["--L", "49", "--pass", "fwd_bwd", "--capacity-bytes", "20000"],
             "backward pass at L=49, C=16 needs 25480 bytes of scratchpad, capacity is 20000"),
        ],
    )
    def test_bench_checks_every_footprint_before_making_inputs(
        self, monkeypatch, capsys, extra, message
    ):
        def no_inputs(*args):
            raise AssertionError("inputs made before the footprint was checked")

        monkeypatch.setattr(harness, "_rand", no_inputs)
        assert main(["bench", "--batch", "4", "--heads", "1", "--C", "16", *extra]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--L", "8", "--C", "16", "--capacity-bytes", "-1"],
             "capacity must be >= 0 and an integer, got -1"),
            (["bench", "--batch", "2,0", "--heads", "1", "--L", "8", "--C", "16"],
             "all extents must be >= 1, got (0, 1, 8, 16)"),
            (["traffic", "--L", "64", "--C", "64", "--capacity-bytes", "30000"],
             "backward pass at L=64, C=64 needs 40960 bytes of scratchpad, capacity is 30000"),
            (["demo", "--capacity-bytes", "100"],
             "forward pass at L=49, C=32 needs 15876 bytes of scratchpad, capacity is 100"),
            (["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "16,0"],
             "all extents must be >= 1, got (8, 0)"),
            (["demo", "--C", "0"], "all extents must be >= 1, got (224, 224, 0, 7)"),
            # An empty list on one axis does not let a bad extent on another through.
            (["check", "--L", "-3", "--C", "16", "--r", ""],
             "all extents must be >= 1, got (-3, 16)"),
            (["check", "--L", "0", "--C", ""], "all extents must be >= 1, got (0,)"),
            (["bench", "--heads", "0", "--batch", ""], "all extents must be >= 1, got (0,)"),
            (["bench", "--batch", "0", "--C", ""], "all extents must be >= 1, got (0,)"),
            # One coverage rule in every subcommand: every requested C is tiled by some
            # chunk count, even beside an empty L list, and every count tiles some C.
            (["check", "--L", "4", "--C", "4,16", "--r", "8"],
             "chunk count 8 exceeds feature count 4"),
            (["check", "--L", "", "--C", "4,16", "--r", "8"],
             "chunk count 8 exceeds feature count 4"),
            (["check", "--L", "4", "--C", "4", "--r", "1,64"],
             "chunk count 64 exceeds feature count 4"),
            (["traffic", "--L", "4", "--C", "4", "--r", "64"],
             "chunk count 64 exceeds feature count 4"),
            (["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "4,2", "--r", "64"],
             "chunk count 64 exceeds every feature count [4, 2]"),
        ],
        ids=["check_capacity", "bench_batch0", "traffic_backward_fit", "demo_fit", "bench_C0",
             "demo_C0", "check_no_r", "check_no_C", "bench_no_batch", "bench_no_C",
             "check_untiled_C", "check_untiled_C_no_L", "check_count_tiles_no_C",
             "traffic_count_tiles_no_C", "bench_count_tiles_no_C"],
    )
    def test_every_refusal_comes_before_any_input(self, monkeypatch, capsys, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the run was planned")

        for name in ("_rand", "window_partition", "_tiled"):
            monkeypatch.setattr(harness, name, no_work)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["check", "--L", "8", "--C", "16"], ["traffic", "--L", "8", "--C", "16"],
         ["bench", "--batch", "1000000000000", "--heads", "1", "--L", "1", "--C", "1"],
         ["demo", "--H", "7000000", "--W", "7000000", "--C", "1", "--k", "7"]],
        ids=["check", "traffic", "bench", "demo"],
    )
    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError("Unable to allocate 7.28 TiB for an array"),
          "Unable to allocate 7.28 TiB for an array"), (MemoryError(), "MemoryError")],
        ids=["numpy", "bare"],
    )
    def test_host_memory_exhaustion_is_a_usage_error(
        self, monkeypatch, capsys, argv, exc, message
    ):
        # Stands in for the inputs' allocation; no test allocates that much.
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(harness, "_rand", exhausted)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bench_rejects_too_few_repeats(self, capsys):
        assert main(["bench", "--repeats", "2", "--batch", "2", "--C", "16", "--L", "8"]) == 2
        assert "repeats" in capsys.readouterr().err

    def test_check_rejects_negative_capacity(self, capsys):
        # Not a grid of capacity refusals that all pass: a usage error.
        assert main(["check", "--L", "1024", "--C", "16", "--capacity-bytes", "-1"]) == 2
        assert "capacity must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["check", "--L", "8", "--C", "16"], ["traffic", "--L", "8", "--C", "16"],
         ["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "16"], ["demo"]],
        ids=["check", "traffic", "bench", "demo"],
    )
    def test_every_subcommand_refuses_a_negative_capacity_by_the_arena_rule(self, capsys, argv):
        # Not bench's footprint message, which would blame the shape.
        assert main([*argv, "--capacity-bytes", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: capacity must be >= 0 and an integer, got -1\n")

    def test_traffic_rejects_invalid_shape(self, capsys):
        assert main(["traffic", "--L", "8", "--C", "4", "--r", "64"]) == 2

    def test_demo_rejects_bad_window(self, capsys):
        assert main(["demo", "--H", "10", "--W", "10", "--k", "3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--L", "8", "--C", "16", "--r", "1,abc"],
            ["traffic", "--L", "8", "--C", "16", "--r", "abc"],
            ["bench", "--C", "", "--r", "abc"],
            ["bench", "--L", "8", "--C", "16", "--r", ""],
        ],
        ids=["check", "traffic", "bench_no_features", "bench_empty"],
    )
    def test_a_bad_chunk_count_is_a_usage_error_at_parsing(self, monkeypatch, capsys, argv):
        def no_run(*args, **kwargs):
            raise AssertionError("a subcommand ran with an unparsed chunk count")

        for name in ("run_check_suite", "run_traffic", "run_bench"):
            monkeypatch.setattr(cli, name, no_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --r: invalid" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--L", "x"],
             "argument --L: invalid integer 'x': expected comma-separated integers"),
            (["check", "--r", "1,abc"],
             "argument --r: invalid chunk count 'abc': expected an int or 'auto'"),
            (["traffic", "--L", "8", "--C", "16", "--r", "abc"],
             "argument --r: invalid chunk count 'abc': expected an int or 'auto'"),
        ]
        # Every single-integer flag, its malformed value last.
        + [(argv, f"argument {argv[-2]}: invalid integer '{argv[-1]}': expected an integer")
           for argv in (["check", "--seed", "x"], ["check", "--capacity-bytes", "1e5"],
                        ["check", "--elem-bytes", "four"], ["traffic", "--C", "16", "--L", "8.0"],
                        ["traffic", "--L", "8", "--C", "x"], ["bench", "--heads", "x"],
                        ["bench", "--L", "x"], ["bench", "--repeats", "x"], ["demo", "--H", "x"],
                        ["demo", "--W", "x"], ["demo", "--C", "x"], ["demo", "--k", "x"])],
        ids=["check_L", "check_r", "traffic_r", "seed", "capacity_bytes", "elem_bytes",
             "traffic_L", "traffic_C", "bench_heads", "bench_L", "bench_repeats", "demo_H",
             "demo_W", "demo_C", "demo_k"],
    )
    def test_usage_errors_say_what_a_valid_value_is(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: {message}\n") and "_int_list" not in err

    def test_chunk_count_below_one_is_an_error(self, capsys):
        assert main(["check", "--L", "4", "--C", "4", "--r", "0"]) == 2
        assert capsys.readouterr() == ("", "error: chunk count must be an integer >= 1, got 0\n")

    @pytest.mark.parametrize("command", ["check", "traffic", "bench", "demo"])
    def test_unwritable_out_is_a_usage_error(self, monkeypatch, tmp_path, capsys, command):
        def no_run(*args, **kwargs):
            raise AssertionError("a subcommand ran before --out was opened")

        for name in ("run_check_suite", "run_traffic", "run_bench", "run_demo"):
            monkeypatch.setattr(cli, name, no_run)
        path = tmp_path / "missing" / "out.csv"
        required = ["--L", "8", "--C", "16"] if command == "traffic" else []
        argv = [command, "--out", str(path), *required]
        assert main(argv) == 2
        err = f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "argv",
        [["check", "--L", "2", "--C", "16", "--r", "1"], ["traffic", "--L", "8", "--C", "16"],
         ["demo", "--H", "14", "--W", "14", "--C", "16"]],
        ids=["check", "traffic", "demo"],
    )
    def test_out_is_truncated_like_a_shell_redirection(self, tmp_path, capsys, argv):
        path = tmp_path / "out.txt"
        path.write_text("stale\n" * 1000)
        assert main(argv + ["--out", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert main(argv) == 0
        direct = capsys.readouterr().out
        if argv[0] == "traffic":  # the text stays on stdout, the CSV goes to --out
            assert stdout == direct and path.read_text().startswith("pass,operand,loads,stores\n")
        else:
            assert stdout == "" and path.read_text() == direct
        assert "stale" not in path.read_text()

    @pytest.mark.parametrize(
        "argv, extents",
        [(["--L", "4", "--C", "0"], (4, 0)), (["--L", "4", "--C", "0,16"], (4, 0)),
         (["--L", "0", "--C", "16"], (0, 16)), (["--L", "4,-2", "--C", "16"], (-2, 16)),
         (["--L", "-3", "--C", "16", "--r", ""], (-3, 16)), (["--L", "0", "--C", ""], (0,))],
        ids=["C0", "C0_then_16", "L0", "L_negative", "L_negative_no_r", "L0_no_C"],
    )
    def test_check_refuses_extents_below_one_before_any_case(
        self, monkeypatch, capsys, argv, extents
    ):
        def no_inputs(*args):
            raise AssertionError("a case ran before the grid was checked")

        monkeypatch.setattr(harness, "_rand", no_inputs)
        assert main(["check", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: all extents must be >= 1, got {extents}\n")

    def test_check_exits_one_and_names_the_failing_cases(self, monkeypatch, capsys):
        real = harness.flash_forward

        def off_by_one_percent(*args):
            o, ctx, rep = real(*args)
            return DenseTensor._adopt(o.array * 1.01), ctx, rep

        monkeypatch.setattr(harness, "flash_forward", off_by_one_percent)
        assert main(["check", "--L", "2", "--C", "16", "--r", "1"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("7/8 cases passed\n")
        assert err == "failing cases: fwd_L2_C16_r1\n"

    @staticmethod
    def _nan_at_first_element(t):
        a = t.array.copy()
        a[0, 0] = math.nan
        return DenseTensor._adopt(a)

    # dK's error sits between dQ's and dV's, where the builtin max dropped a NaN; and at r=2
    # only, the chunk-count case compares r=1's finite dK with r=2's NaN one.
    @pytest.mark.parametrize(
        "nan_rs, failing, passed",
        [((1, 2), ["bwd_L8_C16_r1", "grad_L8_C16_r1", "bwd_L8_C16_r2", "grad_L8_C16_r2",
                   "chunkinv_L8_C16"], "7/12"),
         ((2,), ["bwd_L8_C16_r2", "grad_L8_C16_r2", "chunkinv_L8_C16"], "9/12")],
        ids=["every_r", "r2_only"],
    )
    def test_check_fails_every_case_that_compares_a_nan_gradient(
        self, monkeypatch, capsys, nan_rs, failing, passed
    ):
        real = harness.flash_backward

        def nan_in_dk(ctx, do, arena):
            dq, dk, dv, rep = real(ctx, do, arena)
            if ctx.cfg.r in nan_rs:
                dk = self._nan_at_first_element(dk)
            return dq, dk, dv, rep

        monkeypatch.setattr(harness, "flash_backward", nan_in_dk)
        assert main(["check", "--L", "8", "--C", "16", "--r", "1,2"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith(f"{passed} cases passed\n")
        rows = [line.split() for line in out.splitlines() if line.endswith("FAIL")]
        assert [row[:2] for row in rows] == [[case, "nan"] for case in failing]
        assert err == f"failing cases: {', '.join(failing)}\n"

    def test_demo_prints_and_fails_a_nan_in_every_window(self, monkeypatch, capsys):
        real = harness.flash_forward

        def nan_in_o(*args):
            o, ctx, rep = real(*args)
            return self._nan_at_first_element(o), ctx, rep

        monkeypatch.setattr(harness, "flash_forward", nan_in_o)
        assert main(["demo", "--H", "28", "--W", "28", "--C", "32", "--k", "7", "--seed", "3"]) == 1
        out, err = capsys.readouterr()
        assert "max oracle error over 16 windows: nan\n" in out
        assert err == "oracle error nan exceeds 1e-10\n"

    @staticmethod
    def _break_flash_forward(monkeypatch):
        """Scale O by 1.01, count one more Q load and report a peak one byte high."""
        real = harness.flash_forward

        def broken(*args):
            o, ctx, rep = real(*args)
            loads = {**rep.loads, "Q": rep.loads["Q"] + 1}
            rep = TrafficReport(loads, rep.stores, rep.peak_sram_bytes + 1)
            return DenseTensor._adopt(o.array * 1.01), ctx, rep

        monkeypatch.setattr(harness, "flash_forward", broken)

    @staticmethod
    def _break_flash_backward(monkeypatch):
        """Count one more dO load and report a peak one byte high (at the harness's name)."""
        real = harness.flash_backward

        def broken(*args):
            *grads, rep = real(*args)
            loads = {**rep.loads, "dO": rep.loads["dO"] + 1}
            return (*grads, TrafficReport(loads, rep.stores, rep.peak_sram_bytes + 1))

        monkeypatch.setattr(harness, "flash_backward", broken)

    # Each subcommand's argv, claim prefix and window count; L=4, C=16, r=1 everywhere, so
    # the forward formula is (16 + 2*4*16) x 4 = 576 B. `check` names its failing cases.
    TILED = {
        "traffic": (["traffic", "--L", "4", "--C", "16", "--r", "1"], "", 1),
        "bench": (["bench", "--batch", "2", "--heads", "1", "--L", "4", "--C", "16", "--r", "1"],
                  "bench batch=2 C=16: ", 2),
        "demo": (["demo", "--H", "8", "--W", "8", "--C", "16", "--k", "2"], "", 16),
        "check": (["check", "--L", "4", "--C", "16", "--r", "1"], None, 1),
    }

    @pytest.mark.parametrize("command", TILED)
    def test_one_broken_forward_kernel_fails_every_tiled_subcommand(
        self, monkeypatch, capsys, command
    ):
        argv, prefix, windows = self.TILED[command]
        self._break_flash_forward(monkeypatch)
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        if command == "check":
            assert lines == ["failing cases: fwd_L4_C16_r1"]
            return
        assert lines[-2:] == [
            f"{prefix}forward loads or stores differ from the closed form in {windows} of "
            f"{windows} windows",
            f"{prefix}forward peak 577 B differs from its formula 576 B",
        ]
        assert len(lines) == 2 + (command == "demo")  # and the demo's oracle claim

    @staticmethod
    def _change_forward_reports(monkeypatch, change):
        """Report ``change(i, report)`` from the i-th forward call the harness makes."""
        real, calls = harness.flash_forward, itertools.count()

        def changed(*args):
            o, ctx, rep = real(*args)
            return o, ctx, change(next(calls), rep)

        monkeypatch.setattr(harness, "flash_forward", changed)

    # One more Q load on even calls and one fewer on odd ones: the sum over the windows is
    # the closed form, so only a judge of each call alone names it.
    @pytest.mark.parametrize(
        "argv, claim",
        [(["demo", "--H", "28", "--W", "28"], "in 16 of 16 windows"),
         (["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "16"],
          "in 2 of 2 windows")],
        ids=["demo", "bench"],
    )
    def test_a_traffic_skew_that_cancels_over_the_windows_fails(
        self, monkeypatch, capsys, argv, claim
    ):
        def skew(i, rep):
            return replace(rep, loads={**rep.loads, "Q": rep.loads["Q"] + (-1) ** i})

        self._change_forward_reports(monkeypatch, skew)
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.endswith(f"forward loads or stores differ from the closed form {claim}")

    def test_one_window_with_a_low_forward_peak_fails_the_demo(self, monkeypatch, capsys):
        def low(i, rep):
            return replace(rep, peak_sram_bytes=rep.peak_sram_bytes - 4 * (i == 5))

        self._change_forward_reports(monkeypatch, low)
        assert main(["demo", "--H", "28", "--W", "28"]) == 1
        out, err = capsys.readouterr()
        assert "per-window peak: 15876 B" in out  # the largest peak hides the low one
        assert err == "forward peak 15872 B differs from its formula 15876 B\n"

    # L=64, C=64, r=1: the forward needs 49152 B and fits; the backward needs 65536 B.
    REFUSED_BACKWARD = ["check", "--L", "64", "--C", "64", "--r", "1", "--capacity-bytes", "50000"]

    def test_check_judges_a_refused_backward_and_its_forward_on_one_run(
        self, monkeypatch, capsys
    ):
        runs = []

        def counted(*args, _real=harness._tiled):
            runs.append(args)
            return _real(*args)

        monkeypatch.setattr(harness, "_tiled", counted)
        assert main(self.REFUSED_BACKWARD) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert [(row[0], row[-1]) for row in rows if not row[0].startswith("roundtrip_")] == [
            ("fwd_L64_C64_r1", "PASS"), ("capacity_bwd_L64_C64_r1", "PASS")
        ]
        assert len(runs) == 1

    def test_a_forward_refused_where_only_the_backward_should_be_is_no_passing_case(
        self, monkeypatch, capsys
    ):
        class Smaller(harness.ScratchpadArena):
            def __init__(self, capacity_bytes):
                super().__init__(capacity_bytes - 1000)  # 49000 B: the forward no longer fits

        monkeypatch.setattr(harness, "ScratchpadArena", Smaller)
        assert main(self.REFUSED_BACKWARD) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("forward pass needs 49152 bytes of scratchpad, arena has 49000 of "
                            "49000 available\n")

    @pytest.mark.parametrize("command", TILED)
    def test_a_forward_that_leaves_bytes_held_fails_every_subcommand(
        self, monkeypatch, capsys, command
    ):
        argv, prefix, windows = self.TILED[command]
        real = harness.flash_forward

        def leaking(q, k, v, cfg, arena):
            result = real(q, k, v, cfg, arena)
            arena.allocate("leak", (1,), 4)  # never freed
            return result

        monkeypatch.setattr(harness, "flash_forward", leaking)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if command == "check":  # the backward case, run after the leak, still passes
            assert out.endswith("7/8 cases passed\n")
            assert err == "failing cases: fwd_L4_C16_r1\n"
        else:
            assert err == f"{prefix}forward leaves {4 * windows} B live on the arena\n"

    def test_demo_exits_one_after_its_text_when_a_claim_fails(self, monkeypatch, capsys):
        argv = ["demo", "--H", "28", "--W", "28"]
        assert main(argv) == 0
        good = capsys.readouterr()
        assert good.err == ""
        self._break_flash_forward(monkeypatch)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "Q=25104" in out and len(out.splitlines()) == len(good.out.splitlines())
        assert err.splitlines() == [
            "oracle error 9.997e-03 exceeds 1e-10",
            "forward loads or stores differ from the closed form in 16 of 16 windows",
            "forward peak 15877 B differs from its formula 15876 B",
        ]

    FORWARD_CLAIMS = ["forward loads or stores differ from the closed form in 2 of 2 windows",
                      "forward peak 1281 B differs from its formula 1280 B"]
    BACKWARD_CLAIMS = ["backward loads or stores differ from the closed form in 2 of 2 windows",
                       "backward peak 1537 B differs from its formula 1536 B"]

    # Each kernel call is judged on its own report, so the forward's extra byte shows in a
    # fwd_bwd run too, although the merged peak is the backward's (1536 B). Each claim counts
    # the pass's calls: 2 windows, one call each.
    @pytest.mark.parametrize(
        "pass_, broken, claims",
        [("fwd", "forward", FORWARD_CLAIMS), ("fwd_bwd", "forward", FORWARD_CLAIMS),
         ("fwd_bwd", "backward", BACKWARD_CLAIMS)],
        ids=["fwd", "fwd_bwd", "fwd_bwd_backward"],
    )
    def test_bench_exits_one_after_its_csv_when_a_claim_fails(
        self, monkeypatch, tmp_path, capsys, pass_, broken, claims
    ):
        path = tmp_path / "bench.csv"
        argv = ["bench", "--batch", "2", "--heads", "1", "--L", "8", "--C", "16",
                "--pass", pass_, "--out", str(path)]
        getattr(self, f"_break_flash_{broken}")(monkeypatch)
        assert main(argv) == 1
        assert len(path.read_text().splitlines()) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"bench batch=2 C=16: {claim}" for claim in claims]

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (["traffic", "--L", "4", "--C", "289"], "match closed form: yes\n"),
            (["check", "--L", "4", "--C", "289"], "14/14 cases passed\n"),
            (["demo", "--H", "14", "--W", "14", "--C", "289"], "at r=18)\n"),
            # Ragged counts of every kind: r=3 at C=4 and 10, r=7 at C=10 and 17, auto=18 at 289.
            (["check", "--L", "4,49", "--C", "4,10,17,289", "--r", "1,3,4,7,auto"],
             "91/91 cases passed\n"),
        ],
        ids=["traffic", "check", "demo", "ragged_grid"],
    )
    def test_auto_and_ragged_chunk_counts_run(self, capsys, argv, tail):
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(tail)

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bogus"])
        assert exc.value.code == 2

    def test_demo_runs(self, capsys):
        assert main(["demo", "--H", "14", "--W", "14", "--C", "16", "--k", "7"]) == 0
        out = capsys.readouterr().out
        assert "4 windows of length 49" in out
