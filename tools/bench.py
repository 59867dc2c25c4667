"""Time the hash kernel, the Hamming scan, the ``index``/``query`` round trip, CLI runs, the FASTA
reader or the id checks of an index, as JSON.

    PYTHONPATH=src python3 tools/bench.py kernel|scan|query|cli|reader|ids [-o BENCH_<suite>.json]

``kernel``: for each record length of ``KERNEL_LENGTHS`` it times
``hash_codes`` of about ``KERNEL_BASES`` random bases as one (rows,
length) batch, under block-64 (block-16 below 64 bp) and zigzag-32, and
reports hashes per second. It does the same for ``LONG_LEN`` records
under block-64 (the long-records ``hash`` and ``simulate`` group F), and
times ``hashing._hash_records`` over the ``WINDOW`` bp windows of one
random ``RECORD_LEN`` parent at each step of ``STEPS``, under zigzag-32:
the gathered windows of ``index --window``. Then it times one-row
``compute_hash`` calls on ``PROBES`` random probes of 100 bp (block-64)
and 1000 bp (zigzag-32), the query probes of the two benchmark
workloads: back to back (``call_s``), and each after a 0.1 s sleep
(``call_after_idle_s``), the state a probe runs in right after another
process has run. Each row carries the CRC-32 of its packed hashes.

``scan``: for each row count (20k and 1M) and hash width (32 to 4096 bits)
it builds an index of random hashes, warms it with one probe, and times
random probes one at a time: ``index._distances`` alone, given each probe
as the index's row of uint64 words (as ``dnaphash query`` gives it), and
``query_topk`` with k = 10 (the probe's checks and conversion to words,
scan, selection and ranking). At 1M rows and 4096 bits the
hashes take 512 MB, and a scan may hold as much again.

``query``: it writes 12 random records of about 200 kbp and 40 probes of
1000 bp (even ones a window with 50 substitutions, odd ones random: the
long-records shape) to a temp directory, and indexes them with ``dnaphash
index --window 1000 --width 32 --strategy zigzag`` at step 100 (about 24k
windows) and at step 10 (about 240k). For each step it times that
``cli.main(["index", ...])`` build, ``load_index``, and ``cli.main(["query",
...])`` with ``--top-k 10`` and with ``--max-dist 8``, stdout sent to a null
sink. Each of the three commands also runs once as ``python -m dnaphash``
in a fresh process, whose peak RSS (``ru_maxrss``) the row reports in MB
(``<name>_rss_mb``). It also reports the index file's CRC-32 (its trailer:
the CRC-32 of every byte before it), and each query's line count and the
CRC-32 of its output, so two checkouts can be checked for the same files
and output.

``cli``: it writes ``READS`` seeded random reads of ``READ_LEN`` bp with
ids ``readN`` to a temp directory and runs ``dnaphash hash --width 64
--strategy block`` on them ``FRESH_RUNS`` times, each as ``python -m
dnaphash`` in a fresh process. The row reports the median wall time
(start-up included) and its range in seconds (``wall_s``, ``wall_range``),
and the median peak RSS and its range in MB (``rss_mb``,
``rss_range_mb``). One more run, in-process into a binary sink, gives
the stdout's size and CRC-32. Two ``index`` rows follow, each run the
same way: ``index --width 64`` of the reads, and ``index --window WINDOW
--step 10 --width 32 --strategy zigzag`` of one ``CHROMOSOME_LEN`` record
(the ``reader`` suite's first chromosome, wrapped at ``WRAP`` columns).
Each reports the file's record count, its size and the CRC-32 of every
byte before its trailer.

``reader``: it writes seeded FASTA to a temp directory: the ``cli``
suite's reads, the same reads with an ``N`` in a share ``N_SHARE`` of them,
``LONG_RECORDS`` records of ``LONG_LEN`` bp, and ``CHROMOSOMES`` records of
``CHROMOSOME_LEN`` bp, the last two wrapped at ``WRAP`` columns. For each
of the first three, and for the first chromosome alone, it times the
streamed reader (``sequence._stream_fasta``) over the whole file, the reads
with ``N`` under ``skip-record`` (with logging off) and the rest under
``reject``, and reports MB/s, the record count, and the CRC-32s of the ids'
bytes, of the lengths (int64) and of the codes. Then it runs ``dnaphash
hash`` of one and of all the chromosomes ``FRESH_RUNS`` times each, as the
``cli`` suite does, and reports the wall time, the peak RSS and the
stdout's size and CRC-32.

``ids``: for each of four seeded id shapes it times the ``HashIndex``
constructor over random zigzag-32 hashes, given the ids as one column,
and ``load_index`` of that index's v1 image from memory followed by one
``query_topk`` with k = 10 of a random probe. The shapes are window ids
``chrP:offset``: those of the ``query`` suite's records at step 100,
about 24k, and the 999,901 of one ``CHROMOSOME_LEN`` record at step 10;
and read ids: ``SMALL_READS`` ids ``sN.M`` (M random in 1..99, as
perfbench names its reads) and ``READS`` ids ``readN``. Each row reports
the CRC-32 of the image (its trailer) and of the first probe's top-k ids,
one per line, so two checkouts can be checked for the same files and
ranking.

Every timing is the median seconds per call over at least ``MIN_SECONDS``
and ``MIN_SAMPLES`` calls, so that it spans more than one of a shared
host's slow spells. The package comes from whichever ``dnaphash`` is first
on ``PYTHONPATH``, so the same command times two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import zlib

import numpy as np

import dnaphash
from dnaphash import (PerceptualHash, SelectionStrategy, Sequence, cli, compute_hash, hash_codes,
                      index_bytes, load_index)
from dnaphash.hashing import _hash_records
from dnaphash.index import _HEADER, HashIndex, _distances, query_topk
from dnaphash.sequence import _Ids, _stream_fasta

SEED = 0
MIN_SECONDS = 2.0
MIN_SAMPLES = 21
PROBES = 40
TOP_K = 10
ROWS = (20_000, 1_000_000)
WIDTHS = (32, 64, 100, 256, 1024, 4096)
RECORDS = 12
RECORD_LEN = 200_000
SUBSTITUTIONS = 50
WINDOW = 1000
STEPS = (100, 10)
MAX_DIST = 8
READS = 1_000_000
SMALL_READS = 20_000
READ_LEN = 100
FRESH_RUNS = 5
N_SHARE = 0.01
LONG_RECORDS = 900
LONG_LEN = 10_000
CHROMOSOMES = 4
CHROMOSOME_LEN = 10_000_000
WRAP = 80
KERNEL_LENGTHS = (36, 64, 100, 150, 250, 400, 1000)
KERNEL_BASES = 4_000_000
PROBE_SHAPES = ((100, SelectionStrategy("block", 64)), (1000, SelectionStrategy("zigzag", 32)))

_BASES = np.frombuffer(b"ATCG", dtype=np.uint8)


def _time(row: dict, name: str, fn, idle: float = 0.0) -> None:
    """Set ``row[name + "_s"]`` to the median seconds of ``fn(i)``, i = 0, 1, ...,
    and ``row[name + "_samples"]`` to the number of calls.

    With ``idle``, each call follows a ``time.sleep(idle)``, which counts
    toward ``MIN_SECONDS`` but not toward the call's time.
    """
    times: list[float] = []
    total = 0.0
    while total < MIN_SECONDS or len(times) < MIN_SAMPLES:
        if idle:
            time.sleep(idle)
        start = time.perf_counter()
        fn(len(times))
        times.append(time.perf_counter() - start)
        total += times[-1] + idle
    row[f"{name}_s"] = statistics.median(times)
    row[f"{name}_samples"] = len(times)


def _random_rows(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """n random packed hashes of ``width`` bits, padded to whole words, as uint8."""
    nbytes = (width + 7) // 8
    rows = np.zeros((n, -(-nbytes // 8) * 8), dtype=np.uint8)
    for start in range(0, n, 1 << 16):  # in blocks, to hold no second copy
        block = rows[start:start + (1 << 16)]
        block[:, :nbytes] = rng.integers(0, 256, size=(len(block), nbytes), dtype=np.uint8)
    rows[:, nbytes - 1] &= (0xFF << (8 * nbytes - width)) & 0xFF
    return rows


def _kernel_codes(rows: int, length: int) -> np.ndarray:
    """The random base codes each suite row of ``length`` hashes."""
    return np.random.default_rng([SEED, length]).integers(0, 4, size=(rows, length), dtype=np.uint8)


def _name(strategy: SelectionStrategy) -> str:
    return f"{strategy.kind}-{strategy.k}"


def kernel():
    """Yield a ``hash_codes`` row per (length, strategy), a ``_hash_records`` row per window
    step, then a ``compute_hash`` row per probe shape."""
    shapes = [(length, strategy) for length in KERNEL_LENGTHS
              for strategy in (SelectionStrategy("block", 64 if length >= 64 else 16),
                               SelectionStrategy("zigzag", 32))]
    for length, strategy in shapes + [(LONG_LEN, SelectionStrategy("block", 64))]:
        codes = _kernel_codes(max(1, KERNEL_BASES // length), length)
        packed = hash_codes(codes, strategy)  # fills the kernel's caches
        row = {"function": "hash_codes", "length": length, "strategy": _name(strategy),
               "rows": len(codes), "crc32": f"{zlib.crc32(packed):08x}"}
        _time(row, "call", lambda i: hash_codes(codes, strategy))
        row["hashes_per_second"] = round(len(codes) / row["call_s"])
        yield row
    strategy, codes = SelectionStrategy("zigzag", 32), _kernel_codes(1, RECORD_LEN)[0]
    for step in STEPS:  # the windows of one parent
        starts = np.arange(0, RECORD_LEN - WINDOW + 1, step)
        lengths = np.full(len(starts), WINDOW)
        packed = _hash_records(starts, lengths, codes, strategy)
        row = {"function": "_hash_records", "length": WINDOW, "strategy": _name(strategy),
               "rows": len(starts), "step": step, "crc32": f"{zlib.crc32(packed):08x}"}
        _time(row, "call", lambda i: _hash_records(starts, lengths, codes, strategy))
        row["hashes_per_second"] = round(len(starts) / row["call_s"])
        yield row
    for length, strategy in PROBE_SHAPES:
        probes = [Sequence(f"q{i}", _BASES[row_codes].tobytes().decode("ascii"))
                  for i, row_codes in enumerate(_kernel_codes(PROBES, length))]
        packed = b"".join(compute_hash(probe, strategy).data for probe in probes)
        row = {"function": "compute_hash", "length": length, "strategy": _name(strategy),
               "rows": 1, "crc32": f"{zlib.crc32(packed):08x}"}

        def call(i):
            compute_hash(probes[i % PROBES], strategy)

        _time(row, "call", call)
        row["hashes_per_second"] = round(1 / row["call_s"])
        _time(row, "call_after_idle", call, idle=0.1)
        yield row


def scan():
    """Yield one row per (row count, width): the per-probe scan and top-k times."""
    rng = np.random.default_rng(SEED)
    for n in ROWS:
        ids = tuple(f"r{i}" for i in range(n))
        source_len = np.zeros(n, dtype=np.uint32)
        for width in WIDTHS:
            strategy = SelectionStrategy("zigzag", width)
            index = HashIndex(strategy, ids, source_len, _random_rows(rng, n, width))
            nbytes = (width + 7) // 8
            packed = _random_rows(rng, PROBES, width)
            words = packed.view(np.uint64)  # each probe as a row of the index's words
            probes = [PerceptualHash(p[:nbytes].tobytes(), strategy) for p in packed]
            query_topk(index, probes[0], TOP_K)  # builds the index's cached columns
            row = {"rows": n, "width": width}
            _time(row, "distances", lambda i: _distances(index, words[i % PROBES]))
            _time(row, "query_topk", lambda i: query_topk(index, probes[i % PROBES], TOP_K))
            del index
            yield row


def _write_inputs(rng: np.random.Generator, directory: str) -> tuple[str, str]:
    """Write the records and the probes as FASTA; return both paths."""
    sizes = rng.integers(RECORD_LEN - RECORD_LEN // 40, RECORD_LEN + RECORD_LEN // 40 + 1,
                         size=RECORDS)
    records = [rng.integers(0, 4, size=int(n), dtype=np.uint8) for n in sizes]  # base codes
    probes = []
    for j in range(PROBES):
        if j % 2:
            probes.append(rng.integers(0, 4, size=WINDOW, dtype=np.uint8))
            continue
        parent = records[int(rng.integers(0, RECORDS))]
        start = int(rng.integers(0, (len(parent) - WINDOW) // STEPS[0] + 1)) * STEPS[0]
        probe = parent[start:start + WINDOW].copy()
        at = rng.choice(WINDOW, size=SUBSTITUTIONS, replace=False)
        probe[at] = (probe[at] + rng.integers(1, 4, size=SUBSTITUTIONS, dtype=np.uint8)) % 4
        probes.append(probe)
    paths = []
    for name, prefix, seqs in (("records.fa", b"chr", records), ("probes.fa", b"q", probes)):
        paths.append(os.path.join(directory, name))
        _write_fasta(paths[-1], prefix, seqs)
    return paths[0], paths[1]


def _write_fasta(path: str, prefix: bytes, records, wrap: int | None = None) -> None:
    """Write records of base codes as FASTA with ids ``<prefix>N``, ``wrap`` bases a line
    (all of a record's bases on one line if None)."""
    with open(path, "wb") as handle:
        for i, codes in enumerate(records):
            text = _BASES[codes].tobytes()
            step = wrap or len(text)
            lines = b"\n".join(text[at:at + step] for at in range(0, len(text), step))
            handle.write(b">%s%d\n%s\n" % (prefix, i, lines))


def _cli(argv: list[str], sink) -> None:
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dnaphash {' '.join(argv)} exited {code}")


# Runs in a fresh interpreter that imports nothing large. A child's ru_maxrss
# includes the high-water mark of the process that started it (Linux keeps it
# across exec), so the command is started from this small process and not
# from the benchmark, which holds far more memory than the command.
_SPAWNER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start)
"""


def _fresh(argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of ``python -m dnaphash argv`` in a fresh process,
    on this package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(dnaphash.__file__)))
    paths = [root, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [root]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", _SPAWNER, sys.executable, "-m", "dnaphash", *argv],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    code, maxrss_kb, wall = out.split()
    if code != "0":
        raise RuntimeError(f"dnaphash {' '.join(argv)} exited {code}")
    return float(wall), int(maxrss_kb) / 1024


def _stdout(argv: list[str]) -> bytes:
    """The bytes ``cli.main(argv)`` writes to stdout, run in this process."""
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    _cli(argv, sink)
    sink.flush()
    return sink.buffer.getvalue()


def _load(path: str) -> None:
    with open(path, "rb") as handle:
        load_index(handle)


def query():
    """Yield one row per step: the index build, load and query times, with CRC-32s."""
    with tempfile.TemporaryDirectory(prefix="bench-query-") as directory, \
            open(os.devnull, "w", encoding="utf-8") as null:
        records, probes = _write_inputs(np.random.default_rng(SEED), directory)
        for step in STEPS:
            index = os.path.join(directory, f"step{step}.dph")
            build = ["index", records, "-o", index, "--window", str(WINDOW), "--step", str(step),
                     "--width", "32", "--strategy", "zigzag"]
            _cli(build, null)
            with open(index, "rb") as handle:
                data = handle.read()
            # The CRC-32 of a whole file that ends in its own CRC-32 is a constant.
            row = {"step": step, "windows": len(load_index(io.BytesIO(data))),
                   "index_crc32": f"{zlib.crc32(data[:-4]):08x}"}
            del data
            _time(row, "index", lambda i: _cli(build, null))
            row["index_rss_mb"] = _fresh(build)[1]
            _time(row, "load_index", lambda i: _load(index))
            for mode, flag in (("topk", ["--top-k", str(TOP_K)]),
                               ("range", ["--max-dist", str(MAX_DIST)])):
                argv = ["query", index, probes, *flag]
                out = _stdout(argv)
                row[f"{mode}_lines"] = out.count(b"\n")
                row[f"{mode}_crc32"] = f"{zlib.crc32(out):08x}"
                del out
                _time(row, mode, lambda i: _cli(argv, null))
                row[f"{mode}_rss_mb"] = _fresh(argv)[1]
            yield row


def _write_reads(directory: str, n_share: float = 0.0) -> str:
    """Write the seeded reads as FASTA, with an ``N`` at a random base of a share
    ``n_share`` of them; return the path."""
    rng, marks = np.random.default_rng(SEED), np.random.default_rng([SEED, 1])
    path = os.path.join(directory, "reads-n.fa" if n_share else "reads.fa")
    with open(path, "wb") as handle:
        for start in range(0, READS, 1 << 16):
            bases = _BASES[rng.integers(0, 4, size=(min(1 << 16, READS - start), READ_LEN),
                                        dtype=np.uint8)]
            if n_share:
                rows = np.flatnonzero(marks.random(len(bases)) < n_share)
                bases[rows, marks.integers(0, READ_LEN, size=len(rows))] = ord("N")
            handle.write(b"".join(b">read%d\n%s\n" % (start + i, row.tobytes())
                                  for i, row in enumerate(bases)))
    return path


def cli_runs():
    """Yield the ``hash`` row, then the two ``index`` rows: wall time and peak RSS of fresh runs,
    and the CRC-32 of the stdout or of the file."""
    with tempfile.TemporaryDirectory(prefix="bench-cli-") as directory:
        reads = _write_reads(directory)
        argv = ["hash", reads, "--width", "64", "--strategy", "block"]
        out = _stdout(argv)
        row = {"command": "hash", "records": READS, "length": READ_LEN, "strategy": "block-64",
               "stdout_bytes": len(out), "stdout_crc32": f"{zlib.crc32(out):08x}"}
        del out
        row.update(_fresh_runs(argv))
        yield row
        index = os.path.join(directory, "out.dph")
        for name, path, length, kind, width, window, step in (
                ("reads", reads, READ_LEN, "block", 64, None, None),
                ("chromosome", _write_chromosomes(directory, 1), CHROMOSOME_LEN, "zigzag", 32,
                 WINDOW, STEPS[1])):
            argv = ["index", path, "-o", index, "--width", str(width), "--strategy", kind]
            if window is not None:
                argv += ["--window", str(window), "--step", str(step)]
            fresh = _fresh_runs(argv)
            with open(index, "rb") as handle:
                data = handle.read()
            row = {"command": "index", "input": name, "records": _HEADER.unpack_from(data)[-1],
                   "length": length, "strategy": f"{kind}-{width}", "window": window,
                   "step": step, "file_bytes": len(data),
                   "file_crc32": f"{zlib.crc32(data[:-4]):08x}", **fresh}
            del data
            yield row


def _fresh_runs(argv: list[str]) -> dict:
    """The median wall time and peak RSS of ``FRESH_RUNS`` fresh runs of ``argv``, and their ranges."""
    walls, peaks = zip(*(_fresh(argv) for _ in range(FRESH_RUNS)))
    return {"wall_s": statistics.median(walls), "wall_samples": len(walls),
            "wall_range": [min(walls), max(walls)], "rss_mb": statistics.median(peaks),
            "rss_range_mb": [min(peaks), max(peaks)]}


def _read(path: str, n_policy: str) -> int:
    """Stream ``path`` through the reader; return its record count."""
    with open(path, "rb") as handle:
        return sum(len(batch.ids) for batch in _stream_fasta(handle, n_policy=n_policy))


def _read_crcs(path: str, n_policy: str) -> list[int]:
    """The CRC-32s of the ids' bytes, the lengths (int64) and the codes the reader streams."""
    crcs = [0, 0, 0]
    with open(path, "rb") as handle:
        for batch in _stream_fasta(handle, n_policy=n_policy):
            columns = (batch.ids.data, batch.lengths.astype("<i8"), batch.codes)
            crcs = [zlib.crc32(column, crc) for column, crc in zip(columns, crcs)]
    return crcs


def _write_chromosomes(directory: str, n: int) -> str:
    """Write ``n`` seeded records of ``CHROMOSOME_LEN`` bp as FASTA wrapped at ``WRAP`` columns;
    return the path. Every file starts with the same first chromosome."""
    path = os.path.join(directory, f"chr{n}.fa")
    rng = np.random.default_rng([SEED, 3])
    _write_fasta(path, b"chr", (rng.integers(0, 4, size=CHROMOSOME_LEN, dtype=np.uint8)
                                for _ in range(n)), WRAP)
    return path


def reader():
    """Yield a row per input of the streamed reader, then a row per fresh ``hash`` of chromosomes."""
    with tempfile.TemporaryDirectory(prefix="bench-reader-") as directory:
        rng = np.random.default_rng([SEED, 2])
        records = os.path.join(directory, "records.fa")
        _write_fasta(records, b"rec", (rng.integers(0, 4, size=LONG_LEN, dtype=np.uint8)
                                       for _ in range(LONG_RECORDS)), WRAP)
        chromosomes = [_write_chromosomes(directory, n) for n in sorted({1, CHROMOSOMES})]
        inputs = (("reads", _write_reads(directory), "reject"),
                  ("reads-n", _write_reads(directory, N_SHARE), "skip-record"),
                  ("records", records, "reject"), ("chromosome", chromosomes[0], "reject"))
        logging.disable(logging.WARNING)  # one warning per skipped read
        try:
            for name, path, n_policy in inputs:
                size = os.path.getsize(path)
                row = {"function": "_stream_fasta", "input": name, "n_policy": n_policy,
                       "bytes": size, "records": _read(path, n_policy)}
                row.update((f"{column}_crc32", f"{crc:08x}") for column, crc in
                           zip(("ids", "lengths", "codes"), _read_crcs(path, n_policy)))
                _time(row, "read", lambda i: _read(path, n_policy))
                row["mb_per_second"] = round(size / 1e6 / row["read_s"], 1)
                yield row
        finally:
            logging.disable(logging.NOTSET)
        for path in chromosomes:
            argv = ["hash", path]
            out = _stdout(argv)
            row = {"function": "hash", "input": os.path.basename(path),
                   "records": out.count(b"\n"), "bytes": os.path.getsize(path),
                   "stdout_bytes": len(out), "stdout_crc32": f"{zlib.crc32(out):08x}"}
            row.update(_fresh_runs(argv))
            yield row


def _id_shapes():
    """Yield (shape, ids) for each id shape of the ``ids`` suite."""
    rng = np.random.default_rng([SEED, 4])
    sizes = rng.integers(RECORD_LEN - RECORD_LEN // 40, RECORD_LEN + RECORD_LEN // 40 + 1,
                         size=RECORDS).tolist()  # as the query suite draws its records
    yield "chrP:offset", [f"chr{p}:{offset}" for p, size in enumerate(sizes)
                          for offset in range(0, size - WINDOW + 1, STEPS[0])]
    yield "chrP:offset", [f"chr0:{offset}"
                          for offset in range(0, CHROMOSOME_LEN - WINDOW + 1, STEPS[1])]
    versions = rng.integers(1, 100, size=SMALL_READS).tolist()
    yield "sN.M", [f"s{i}.{version}" for i, version in enumerate(versions)]
    yield "readN", [f"read{i}" for i in range(READS)]


def ids():
    """Yield one row per id shape: the constructor's time, and that of a load plus one top-k."""
    strategy = SelectionStrategy("zigzag", 32)
    for shape, names in _id_shapes():
        column = _Ids.of(names)
        del names
        n, rng = len(column), np.random.default_rng([SEED, 5])
        source_len, hashes = np.zeros(n, dtype=np.uint32), _random_rows(rng, n, strategy.k)
        probes = [PerceptualHash(p[:strategy.k // 8].tobytes(), strategy)
                  for p in _random_rows(rng, PROBES, strategy.k)]
        image = index_bytes(HashIndex(strategy, column, source_len, hashes))
        top = query_topk(load_index(io.BytesIO(image)), probes[0], TOP_K)
        top_ids = "".join(f"{rid}\n" for rid, _ in top).encode("utf-8")
        row = {"ids": shape, "records": n, "id_bytes": len(column.data),
               "image_crc32": f"{zlib.crc32(image[:-4]):08x}",
               "topk_ids_crc32": f"{zlib.crc32(top_ids):08x}"}
        _time(row, "init", lambda i: HashIndex(strategy, column, source_len, hashes))
        _time(row, "load_topk",
              lambda i: query_topk(load_index(io.BytesIO(image)), probes[i % PROBES], TOP_K))
        del column, hashes, image
        yield row


# Each suite, and the constants that size it.
SUITES = {
    "kernel": (kernel, ("KERNEL_LENGTHS", "KERNEL_BASES", "LONG_LEN", "RECORD_LEN", "WINDOW",
                        "STEPS", "PROBES")),
    "scan": (scan, ("ROWS", "WIDTHS", "PROBES", "TOP_K")),
    "query": (query, ("RECORDS", "RECORD_LEN", "PROBES", "SUBSTITUTIONS", "WINDOW", "STEPS",
                      "TOP_K", "MAX_DIST")),
    "cli": (cli_runs, ("READS", "READ_LEN", "CHROMOSOME_LEN", "WRAP", "WINDOW", "STEPS",
                       "FRESH_RUNS")),
    "reader": (reader, ("READS", "READ_LEN", "N_SHARE", "LONG_RECORDS", "LONG_LEN", "CHROMOSOMES",
                        "CHROMOSOME_LEN", "WRAP", "FRESH_RUNS")),
    "ids": (ids, ("RECORDS", "RECORD_LEN", "WINDOW", "STEPS", "CHROMOSOME_LEN", "SMALL_READS",
                  "READS", "PROBES", "TOP_K")),
}


def _machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("-o", "--output", help="JSON file to write (default BENCH_<suite>.json)")
    args = parser.parse_args(argv)
    suite, sizes = SUITES[args.suite]
    results = []
    for row in suite():
        results.append(row)
        print("  ".join(f"{key[:-2]} {1e3 * value:9.3f} ms" if key.endswith("_s") else
                        f"{key} {value}" for key, value in row.items()
                        if not key.endswith("_samples")), file=sys.stderr)
    report = {
        "benchmark": args.suite,
        "command": f"PYTHONPATH=src python3 tools/bench.py {args.suite}",
        "constants": {name.lower(): globals()[name]
                      for name in ("SEED", "MIN_SECONDS", "MIN_SAMPLES", *sizes)},
        "machine": _machine(),
        "results": results,
    }
    with open(args.output or f"BENCH_{args.suite}.json", "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
