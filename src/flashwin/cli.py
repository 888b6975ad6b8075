"""Command-line entry point: check, traffic, bench, and demo subcommands.

Exit codes: 0 success, 1 a failed check or claim, 2 usage or ``--out`` file error, or a
run that exhausts host memory.
``main`` opens ``--out``, truncating it, before any work.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import astuple

from .errors import FlashwinError
from .harness import (
    BENCH_COLUMNS,
    DEFAULT_SEED,
    render_suite_table,
    run_bench,
    run_check_suite,
    run_demo,
    run_traffic,
)
from .memory import DEFAULT_CAPACITY_BYTES, ELEM_BYTES


def _tokens(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _int(tok: str, what: str = "integer", expected: str = "an integer") -> int:
    """The one parser of integer flags: ``int(tok)``, else a usage error saying what is valid."""
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
    p.add_argument(
        "--capacity-bytes",
        type=_int,
        default=DEFAULT_CAPACITY_BYTES,
        help="scratchpad budget in bytes (default 131072)",
    )
    p.add_argument(
        "--elem-bytes",
        type=_int,
        choices=ELEM_BYTES,
        default=4,
        help="element size used for byte accounting",
    )
    p.add_argument("--out", default=None, help="write the primary output to this path")


def _common(args) -> dict:
    """The flags of ``_add_common`` (all but ``--out``) as keyword arguments of a run."""
    return dict(capacity_bytes=args.capacity_bytes, elem_bytes=args.elem_bytes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashwin",
        description="Tiled window attention kernels over a simulated memory hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the correctness/traffic/occupancy suite")
    p.add_argument("--seed", type=_int, default=DEFAULT_SEED, help="master RNG seed")
    _add_common(p)
    p.add_argument("--L", type=_int_list, default=[1, 2, 8, 49, 64], help="sequence lengths")
    p.add_argument("--C", type=_int_list, default=[16, 32, 64], help="channel counts")
    p.add_argument(
        "--r", type=_r_list, default=[1, 2, 4, "auto"], help="chunk counts (ints or 'auto')"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("traffic", help="report traffic and footprint for one shape")
    _add_common(p)
    p.add_argument("--L", type=_int, required=True)
    p.add_argument("--C", type=_int, required=True)
    p.add_argument("--r", type=_chunk_count, default="auto", help="chunk count (int or 'auto')")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("bench", help="emit a timing table as CSV")
    _add_common(p)
    p.add_argument("--batch", type=_int_list, default=[64, 256], help="window counts")
    p.add_argument("--heads", type=_int, default=4)
    p.add_argument("--L", type=_int, default=64)
    p.add_argument("--C", type=_int_list, default=[64, 256])
    p.add_argument("--r", type=_chunk_count, default="auto", help="chunk count (int or 'auto')")
    p.add_argument("--pass", dest="pass_", choices=("fwd", "fwd_bwd"), default="fwd")
    p.add_argument("--repeats", type=_int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo", help="partition -> attention -> reverse walkthrough")
    p.add_argument("--seed", type=_int, default=DEFAULT_SEED, help="master RNG seed")
    _add_common(p)
    p.add_argument("--H", type=_int, default=224)
    p.add_argument("--W", type=_int, default=224)
    p.add_argument("--C", type=_int, default=32)
    p.add_argument("--k", type=_int, default=7)
    p.set_defaults(func=cmd_demo)

    return parser


def _verdict(failed: list[str]) -> int:
    """Exit status of a subcommand: 1, after one stderr line per failed claim, else 0."""
    sys.stderr.writelines(f"{claim}\n" for claim in failed)
    return 1 if failed else 0


def cmd_check(args, out) -> int:
    results = run_check_suite(args.seed, args.L, args.C, args.r, **_common(args))
    (out or sys.stdout).write(render_suite_table(results))
    failing = [r.case_id for r in results if not r.ok]
    return _verdict(["failing cases: " + ", ".join(failing)] if failing else [])


def _write_csv(out, rows) -> None:
    """The one CSV writer of ``bench`` and ``traffic``: ``rows`` (header first), one per line."""
    csv.writer(out, lineterminator="\n").writerows(rows)


def cmd_traffic(args, out) -> int:
    text, rows, failed = run_traffic(L=args.L, C=args.C, r_value=args.r, **_common(args))
    sys.stdout.write(text)
    if out is not None:
        _write_csv(out, rows)
    return _verdict(failed)


def cmd_bench(args, out) -> int:
    rows, failed = run_bench(
        batches=args.batch,
        heads=args.heads,
        L=args.L,
        Cs=args.C,
        r_value=args.r,
        pass_=args.pass_,
        repeats=args.repeats,
        **_common(args),
    )
    _write_csv(out or sys.stdout, [BENCH_COLUMNS, *map(astuple, rows)])
    return _verdict(failed)


def cmd_demo(args, out) -> int:
    text, failed = run_demo(args.H, args.W, args.C, args.k, args.seed, **_common(args))
    (out or sys.stdout).write(text)
    return _verdict(failed)


def main(argv=None) -> int:
    """Open ``--out`` as a shell redirection would, then run the subcommand on it (None: stdout)."""
    args = build_parser().parse_args(argv)
    try:
        if args.out is None:
            return args.func(args, None)
        with open(args.out, "w", encoding="utf-8") as out:
            return args.func(args, out)
    except (FlashwinError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
