"""Command line front end: hash, index, query, simulate, bench.

Exit codes: 0 success, 1 usage error, 2 data error (bad bases, mismatched
hash shapes), 3 I/O or index-format error. File outputs are written to a
temp file in the target directory, fsynced and moved into place, so a
failed run never leaves a partial artifact behind; a FIFO or a device is
written in place.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import stat
import sys
import tempfile
from typing import Iterator

import numpy as np

from .bench import run_bench
from .errors import DataError, IndexFormatError
from .hashing import STRATEGY_KINDS, SelectionStrategy, _hash_batches
from .index import (
    HashIndex,
    _build,
    _check_k,
    _gather_ids,
    _nearest,
    _pad_rows,
    index_bytes,
    load_index,
)
from .sequence import _Batch, _stream_fasta
from .simulate import (
    DEFAULT_N_PRIMARY,
    DEFAULT_RATES,
    GROUP_PRESETS,
    SimulationConfig,
    preset_config,
    run_group,
    write_histogram_csv,
    write_pair_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

log = logging.getLogger(__name__)


class UsageError(Exception):
    """A bad flag value or combination; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this package reserves 2 for
    # data errors, so route parser complaints through exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _strategy(args) -> SelectionStrategy:
    kind = args.strategy
    if kind is None:
        # Presets pair 64-bit hashes with block selection and 32-bit ones
        # with zigzag; fall back the same way for square vs non-square.
        kind = "block" if math.isqrt(args.width) ** 2 == args.width else "zigzag"
    try:
        return SelectionStrategy(kind, args.width)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@contextlib.contextmanager
def _atomic_write(path: str | None, *, binary: bool = False):
    """A sink whose content only appears at ``path`` when the writer succeeds.

    The temp file takes a new file's mode (0666 less the umask), is fsynced,
    renamed over ``path``, and then the directory is fsynced, so after a
    crash ``path`` holds either its old content or the whole new one. No
    path, or ``-``, is stdout. A path that exists and is not a regular file,
    such as a FIFO or a device, is opened and written in place: a rename
    would replace the node with a file.
    """
    if path in (None, "-"):
        yield sys.stdout.buffer if binary else sys.stdout
        return
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with (open(path, "wb") if binary
              else open(path, "w", encoding="utf-8", newline="")) as handle:
            yield handle
        return
    directory = os.path.dirname(os.path.abspath(path))
    with _naming(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dnaphash-", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@contextlib.contextmanager
def _naming(path: str):
    """Re-raise an OSError as naming ``path``, not the hidden temp file behind it."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _batches(paths: list[str], n_policy: str) -> Iterator[_Batch]:
    """The records of each FASTA file in turn ('-', or none, is stdin)."""
    for path in paths or ["-"]:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed when the process started
                raise OSError("stdin is closed")
            yield from _stream_fasta(sys.stdin.buffer, n_policy=n_policy)
        else:
            with open(path, "rb") as handle:
                yield from _stream_fasta(handle, n_policy=n_policy)


def cmd_hash(args) -> int:
    strategy = _strategy(args)
    ids, rows, _ = _hash_batches(_batches(args.fasta, args.n_policy), strategy)
    digits = (strategy.k + 3) // 4
    hexes = rows.tobytes().hex()
    sys.stdout.write("".join([f"{rid}\t{hexes[at:at + digits]}\n"
                              for rid, at in zip(ids, range(0, len(hexes), 2 * rows.shape[1]))]))
    return EXIT_OK


def cmd_index(args) -> int:
    strategy = _strategy(args)
    try:
        index = _build(_batches(args.fasta, args.n_policy), strategy, window=args.window,
                       step=args.step)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        data = index_bytes(index)
    except ValueError as exc:  # an id too long for the file format
        raise DataError(str(exc)) from None
    with _atomic_write(args.output, binary=True) as sink:
        sink.write(data)
    log.info("indexed %d records into %s", len(index), args.output)
    return EXIT_OK


def cmd_query(args) -> int:
    with open(args.index, "rb") as handle:
        index = load_index(handle)
    probes, rows, _ = _hash_batches(_batches([args.fasta], args.n_policy), index.strategy)
    if args.top_k is not None:
        _check_k(index, args.top_k)
    elif not 0 <= args.max_dist <= index.width:
        raise UsageError(f"--max-dist must be within 0..{index.width}, got {args.max_dist}")
    for pid, words in zip(probes, _pad_rows(rows).view(np.uint64)):
        hits, dist = _nearest(index, words, k=args.top_k, max_dist=args.max_dist)
        sys.stdout.write(_hit_lines(pid, index, hits, dist))
    return EXIT_OK


def _hit_lines(pid: str, index: HashIndex, hits: np.ndarray, dist: np.ndarray) -> str:
    """One ``probe<TAB>id<TAB>distance`` line per hit, in the order of ``hits``.

    Hits come closest first, so they form runs of equal distance; each run
    is written by one join over its gathered ids.
    """
    if not hits.size:
        return ""
    d = dist[hits]
    bounds = [0, *(np.flatnonzero(d[1:] != d[:-1]) + 1).tolist(), len(hits)]
    rows = hits.tolist()
    prefix = f"{pid}\t"
    text = []
    for start, end, distance in zip(bounds, bounds[1:], d[bounds[:-1]].tolist()):
        tail = f"\t{distance}\n"
        text.append(prefix + (tail + prefix).join(_gather_ids(index, rows[start:end])) + tail)
    return "".join(text)


def _simulation_config(args) -> SimulationConfig:
    rates = DEFAULT_RATES
    if args.rates is not None:
        try:
            rates = tuple(float(r) for r in args.rates.split(","))
        except ValueError:
            raise UsageError(f"--rates must be a comma list of numbers, got {args.rates!r}") from None
    try:
        if args.group is not None:
            if args.len is not None or args.width is not None or args.strategy is not None:
                raise UsageError("--group already fixes --len, --width and --strategy")
            return preset_config(args.group, n_primary=args.n, seed=args.seed, rates=rates)
        if args.len is None or args.width is None:
            raise UsageError("either --group or both --len and --width are required")
        return SimulationConfig(
            group="custom",
            seq_len=args.len,
            hash_width=args.width,
            strategy=_strategy(args),
            divergence_rates=rates,
            n_primary=args.n,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def cmd_simulate(args) -> int:
    config = _simulation_config(args)
    hist = run_group(config, keep_pairs=args.per_pair is not None)
    with _atomic_write(args.output) as sink:
        write_histogram_csv(hist, sink)
    if args.per_pair is not None:
        with _atomic_write(args.per_pair) as sink:
            write_pair_csv(hist, sink)
    return EXIT_OK


def cmd_bench(args) -> int:
    strategy = _strategy(args)
    try:
        report = run_bench(seq_len=args.len, strategy=strategy, n=args.n, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"sequences        {report.n}")
    print(f"sequence_length  {report.seq_len}")
    print(f"hash_width       {report.strategy.k}")
    print(f"strategy         {report.strategy.kind}")
    print(f"generation       {report.generation_seconds:.3f} s"
          f"  ({report.generation_rate:,.0f} seq/s)")
    print(f"hashing          {report.hashing_seconds:.3f} s"
          f"  ({report.hashing_rate:,.0f} hashes/s)")
    print(f"generation_share {report.generation_share:.1%}")
    print(f"bits_set         {report.bits_set}")
    return EXIT_OK


def _add_strategy_flags(parser, *, default_width=64):
    parser.add_argument("--width", type=int, default=default_width,
                        help=f"hash width in bits (default {default_width})")
    parser.add_argument("--strategy", choices=STRATEGY_KINDS, default=None,
                        help="bit selection (default: block for square widths, else zigzag)")


def _add_common_input_flags(parser):
    parser.add_argument("--n-policy", choices=("reject", "skip-record"),
                        default="reject",
                        help="what to do with records holding non-ATCG symbols")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnaphash",
                     description="DCT sign-only perceptual hashing for DNA sequences.")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hash", help="print id<TAB>hex hash for FASTA records")
    p.add_argument("fasta", nargs="*", help="FASTA files ('-' or none = stdin)")
    _add_strategy_flags(p)
    _add_common_input_flags(p)
    p.set_defaults(func=cmd_hash)

    p = sub.add_parser("index", help="hash FASTA records into a binary index file")
    p.add_argument("fasta", nargs="*", help="FASTA files ('-' or none = stdin)")
    p.add_argument("-o", "--output", required=True, help="index file to write")
    _add_strategy_flags(p)
    _add_common_input_flags(p)
    p.add_argument("--window", type=int, default=None,
                   help="index fixed-size windows of each sequence instead of whole records")
    p.add_argument("--step", type=int, default=None,
                   help="window start spacing (default: the window size)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="look up FASTA records in an index")
    p.add_argument("index", help="index file written by 'dnaphash index'")
    p.add_argument("fasta", help="FASTA file of query records ('-' = stdin)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-dist", type=int, default=None,
                       help="report every record within this Hamming distance")
    group.add_argument("--top-k", type=int, default=None,
                       help="report the k nearest records")
    _add_common_input_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("simulate",
                       help="hash random primaries against mutated variants; write a distance CSV")
    p.add_argument("--group", default=None,
                   help=f"preset group ({', '.join(GROUP_PRESETS)})")
    p.add_argument("--len", type=int, default=None, help="sequence length for a custom group")
    p.add_argument("--width", type=int, default=None, help="hash width for a custom group")
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default=None,
                   help="bit selection for a custom group")
    p.add_argument("-n", type=int, default=DEFAULT_N_PRIMARY,
                   help=f"primary sequences per group (default {DEFAULT_N_PRIMARY})")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    p.add_argument("--rates", default=None, help="comma list of divergence rates in [0, 1] "
                   f"(default {','.join(map(str, DEFAULT_RATES))})")
    p.add_argument("-o", "--output", default="-", help="CSV destination (default stdout)")
    p.add_argument("--per-pair", default=None,
                   help="also write one ordinal,rate,distance row per hashed pair")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="measure generation and hashing throughput")
    p.add_argument("--len", type=int, default=100, help="sequence length (default 100)")
    _add_strategy_flags(p)
    p.add_argument("-n", type=int, default=100_000,
                   help="sequences to hash (default 100000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"dnaphash: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"dnaphash: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (IndexFormatError, OSError) as exc:
        print(f"dnaphash: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
