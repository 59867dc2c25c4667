"""Time ``dnaphash index`` and ``query`` in-process on window indexes, and write it as JSON.

    PYTHONPATH=src python3 tools/bench_query.py [-o BENCH_query.json]

It writes 12 random records of about 200 kbp and 40 probes of 1000 bp
(even ones a window with 50 substitutions, odd ones random: the
long-records shape) to a temp directory, and indexes them with
``dnaphash index --window 1000 --width 32 --strategy zigzag`` at step 100
(about 24k windows) and at step 10 (about 240k). For each step it reports
the median seconds of that ``cli.main(["index", ...])`` build, of
``load_index`` and of ``cli.main(["query", ...])`` with ``--top-k 10`` and
with ``--max-dist 8``, stdout sent to a null sink, each timed for at least
two seconds and eleven runs. It also reports the index file's CRC-32 (its
trailer: the CRC-32 of every byte before it), and each query's line count
and the CRC-32 of its output, so two checkouts can be checked for the same
files and output. The package comes from whichever ``dnaphash`` is first
on ``PYTHONPATH``, so the same command times two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import zlib

import numpy as np

from dnaphash import cli, load_index

SEED = 0
RECORDS = 12
RECORD_LEN = 200_000
PROBES = 40
SUBSTITUTIONS = 50
WINDOW = 1000
STEPS = (100, 10)
TOP_K = 10
MAX_DIST = 8
MIN_SECONDS = 2.0
MIN_SAMPLES = 11

_BASES = np.frombuffer(b"ATCG", dtype=np.uint8)


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
        path = os.path.join(directory, name)
        with open(path, "wb") as handle:
            for i, codes in enumerate(seqs):
                handle.write(b">%s%d\n%s\n" % (prefix, i, _BASES[codes].tobytes()))
        paths.append(path)
    return paths[0], paths[1]


def _median_seconds(fn) -> tuple[float, int]:
    """Median seconds of ``fn`` over at least ``MIN_SECONDS`` and ``MIN_SAMPLES`` runs."""
    times: list[float] = []
    while sum(times) < MIN_SECONDS or len(times) < MIN_SAMPLES:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def _cli(argv: list[str], sink) -> None:
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dnaphash {' '.join(argv)} exited {code}")


def _load(path: str) -> None:
    with open(path, "rb") as handle:
        load_index(handle)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(directory: str) -> dict:
    records, probes = _write_inputs(np.random.default_rng(SEED), directory)
    results = []
    with open(os.devnull, "w", encoding="utf-8") as null:
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
            row["index_s"], row["index_samples"] = _median_seconds(lambda: _cli(build, null))
            row["load_index_s"], row["load_index_samples"] = _median_seconds(
                lambda: _load(index))
            for mode, flag in (("topk", ["--top-k", str(TOP_K)]),
                               ("range", ["--max-dist", str(MAX_DIST)])):
                query = ["query", index, probes, *flag]
                text = io.StringIO()
                _cli(query, text)
                out = text.getvalue().encode("utf-8")
                row[f"{mode}_lines"] = out.count(b"\n")
                row[f"{mode}_crc32"] = f"{zlib.crc32(out):08x}"
                del text, out
                row[f"{mode}_s"], row[f"{mode}_samples"] = _median_seconds(
                    lambda: _cli(query, null))
            results.append(row)
            print(f"{row['windows']:>7} windows  index {1e3 * row['index_s']:8.2f} ms"
                  f"  load_index {1e3 * row['load_index_s']:8.2f} ms"
                  f"  query --top-k {1e3 * row['topk_s']:8.2f} ms"
                  f"  query --max-dist {1e3 * row['range_s']:8.2f} ms"
                  f" ({row['range_lines']} lines)", file=sys.stderr)
    return {
        "benchmark": "query",
        "command": "PYTHONPATH=src python3 tools/bench_query.py",
        "seed": SEED,
        "records": RECORDS,
        "record_len": RECORD_LEN,
        "window": WINDOW,
        "probes": PROBES,
        "top_k": TOP_K,
        "max_dist": MAX_DIST,
        "min_seconds": MIN_SECONDS,
        "machine": {
            "cpu": _cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("-o", "--output", default="BENCH_query.json",
                        help="JSON file to write (default BENCH_query.json)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-query-") as directory:
        report = run(directory)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
