"""Command-line entry point: check, traffic, bench, and demo subcommands.

Exit codes: 0 success, 1 check failure, 2 usage or ``--out`` file error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .errors import FlashwinError
from .harness import (
    DEFAULT_SEED,
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
from .memory import DEFAULT_CAPACITY_BYTES, ELEM_BYTES


def _tokens(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _int(tok: str, what: str, expected: str) -> int:
    """``int(tok)``, else a usage error that says what a valid value is."""
    try:
        return int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} {tok!r}: expected {expected}") from None


def _int_list(text: str) -> list[int]:
    return [_int(tok, "integer", "comma-separated integers") for tok in _tokens(text)]


def _chunk_count(text: str) -> int | str:
    """The one parser of ``--r`` values: an int or 'auto' (else a usage error)."""
    return "auto" if text.strip() == "auto" else _int(text, "chunk count", "an int or 'auto'")


def _r_list(text: str) -> list[int | str]:
    return [_chunk_count(tok) for tok in _tokens(text)]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed")
    p.add_argument(
        "--capacity-bytes",
        type=int,
        default=DEFAULT_CAPACITY_BYTES,
        help="scratchpad budget in bytes (default 131072)",
    )
    p.add_argument(
        "--elem-bytes",
        type=int,
        choices=ELEM_BYTES,
        default=4,
        help="element size used for byte accounting",
    )
    p.add_argument("--out", default=None, help="write the primary output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashwin",
        description="Tiled window attention kernels over a simulated memory hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the correctness/traffic/occupancy suite")
    _add_common(p)
    p.add_argument("--L", type=_int_list, default=[1, 2, 8, 49, 64], help="sequence lengths")
    p.add_argument("--C", type=_int_list, default=[16, 32, 64], help="channel counts")
    p.add_argument(
        "--r", type=_r_list, default=[1, 2, 4, "auto"], help="chunk counts (ints or 'auto')"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("traffic", help="report traffic and footprint for one shape")
    _add_common(p)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--r", type=_chunk_count, default="auto", help="chunk count (int or 'auto')")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("bench", help="emit a timing table as CSV")
    _add_common(p)
    p.add_argument("--batch", type=_int_list, default=[64, 256], help="window counts")
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--C", type=_int_list, default=[64, 256])
    p.add_argument("--r", type=_chunk_count, default="auto", help="chunk count (int or 'auto')")
    p.add_argument("--pass", dest="pass_", choices=("fwd", "fwd_bwd"), default="fwd")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo", help="partition -> attention -> reverse walkthrough")
    _add_common(p)
    p.add_argument("--H", type=int, default=224)
    p.add_argument("--W", type=int, default=224)
    p.add_argument("--C", type=int, default=32)
    p.add_argument("--k", type=int, default=7)
    p.set_defaults(func=cmd_demo)

    return parser


def _open_out(args):
    if args.out is None:
        return nullcontext(sys.stdout)
    return open(args.out, "w", encoding="utf-8")


def cmd_check(args) -> int:
    results = run_check_suite(
        seed=args.seed,
        Ls=args.L,
        Cs=args.C,
        r_values=args.r,
        capacity_bytes=args.capacity_bytes,
        elem_bytes=args.elem_bytes,
    )
    with _open_out(args) as out:
        out.write(render_suite_table(results))
    failing = [r.case_id for r in results if not r.ok]
    if failing:
        print("failing cases: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_traffic(args) -> int:
    summary = run_traffic(
        L=args.L,
        C=args.C,
        r=resolve_r(args.r, args.C),
        elem_bytes=args.elem_bytes,
        seed=args.seed,
        capacity_bytes=args.capacity_bytes,
    )
    sys.stdout.write(render_traffic_text(summary))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as out:
            write_traffic_csv(summary, out)
    if not summary.consistent:
        print("instrumented traffic or peaks differ from the closed forms", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    rows = run_bench(
        batches=args.batch,
        heads=args.heads,
        L=args.L,
        Cs=args.C,
        r_value=args.r,
        pass_=args.pass_,
        repeats=args.repeats,
        seed=args.seed,
        capacity_bytes=args.capacity_bytes,
        elem_bytes=args.elem_bytes,
    )
    with _open_out(args) as out:
        write_bench_csv(rows, out)
    return 0


def cmd_demo(args) -> int:
    text = run_demo(
        H=args.H,
        W=args.W,
        C=args.C,
        k=args.k,
        seed=args.seed,
        capacity_bytes=args.capacity_bytes,
        elem_bytes=args.elem_bytes,
    )
    with _open_out(args) as out:
        out.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlashwinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
